package controller

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"ribbon/internal/core"
	"ribbon/internal/models"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// testConfig is the shared fast setup: MT-WND's Table 3 pool, a small
// evaluation window, explicit bounds wide enough for 2x load, and tight
// timing parameters so replays stay in the tens of milliseconds.
func testConfig() Config {
	return Config{
		Spec:          serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n"),
		Sim:           serving.SimOptions{Seed: 42, Queries: 2000},
		Bounds:        []int{8, 8, 8},
		InitialBudget: 20,
		Params: Params{
			WindowMs:     2000,
			TickMs:       200,
			RelThreshold: 0.3,
			DwellMs:      1000,
			AdaptBudget:  12,
		},
	}
}

func mustRun(t *testing.T, cfg Config, phases []workload.Phase) Status {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.GenerateSchedule(cfg.Spec.Model, 7, workload.HeavyTailLogNormalBatch, phases)
	st, err := c.Run(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestControllerReconfiguresOnSpike is the headline acceptance test: on a
// seeded 2x spike the controller confirms the shift after — and only after —
// the dwell time, re-searches, and lands on a QoS-satisfying pool, logging
// exactly one reconfiguration.
func TestControllerReconfiguresOnSpike(t *testing.T) {
	cfg := testConfig()
	phases := []workload.Phase{{Queries: 6000, RateScale: 1.0}, {Queries: 8000, RateScale: 2.0}}
	stream := workload.GenerateSchedule(cfg.Spec.Model, 7, workload.HeavyTailLogNormalBatch, phases)
	shiftMs := stream.Queries[6000].ArrivalMs // first arrival of the 2x phase

	st := mustRun(t, cfg, phases)
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want 1: %+v", len(st.Reconfigurations), st.Reconfigurations)
	}
	rec := st.Reconfigurations[0]
	if !rec.Applied {
		t.Fatalf("spike reconfiguration not applied: %+v", rec)
	}
	if rec.IncumbentMeetsQoS {
		t.Fatal("incumbent reported QoS-satisfying at 2x load")
	}
	if rec.NewScale < 1.5 || rec.NewScale > 2.5 {
		t.Fatalf("re-planned for scale %g, want ~2", rec.NewScale)
	}
	if !st.IncumbentMeetsQoS {
		t.Fatalf("final incumbent %v violates QoS at the new load", st.Incumbent)
	}
	if rec.ToCostPerHour <= rec.FromCostPerHour {
		t.Fatalf("2x pool (%v, $%.3f) not larger than 1x pool (%v, $%.3f)",
			rec.To, rec.ToCostPerHour, rec.From, rec.FromCostPerHour)
	}

	// Hysteresis: the shift cannot be confirmed before one full dwell has
	// elapsed after the load actually changed...
	if rec.AtMs < shiftMs+cfg.Params.DwellMs {
		t.Fatalf("reconfigured at %.0fms, before dwell (shift at %.0fms, dwell %gms)",
			rec.AtMs, shiftMs, cfg.Params.DwellMs)
	}
	// ...and must land within the dwell window: detection lag is bounded
	// by the estimator window, plus the dwell, plus tick rounding.
	deadline := shiftMs + cfg.Params.WindowMs + cfg.Params.DwellMs + 3*cfg.Params.TickMs
	if rec.AtMs > deadline {
		t.Fatalf("reconfigured at %.0fms, after the dwell window deadline %.0fms", rec.AtMs, deadline)
	}
	if st.State != StateDone {
		t.Fatalf("final state %q, want %q", st.State, StateDone)
	}
}

// TestControllerHoldsSteadyUnderNoise is the second acceptance test: a
// noise-only schedule (±5% jitter, far below the 30% threshold) must cause
// zero reconfigurations.
func TestControllerHoldsSteadyUnderNoise(t *testing.T) {
	cfg := testConfig()
	phases, err := workload.ScenarioPhases(workload.ScenarioNoise, 12000)
	if err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, cfg, phases)
	if len(st.Reconfigurations) != 0 {
		t.Fatalf("noise-only schedule caused %d reconfigurations: %+v",
			len(st.Reconfigurations), st.Reconfigurations)
	}
	if st.EstimatedScale < 0.85 || st.EstimatedScale > 1.15 {
		t.Fatalf("estimated scale %g drifted from 1.0", st.EstimatedScale)
	}
	if st.State != StateDone {
		t.Fatalf("final state %q, want %q", st.State, StateDone)
	}
	if st.Arrivals != 12000 {
		t.Fatalf("ingested %d arrivals, want 12000", st.Arrivals)
	}
}

// TestControllerDeterministic replays the spike and the noise schedules
// twice each and requires byte-identical statuses — the controller's
// determinism contract.
func TestControllerDeterministic(t *testing.T) {
	spike := []workload.Phase{{Queries: 6000, RateScale: 1.0}, {Queries: 8000, RateScale: 2.0}}
	noise, err := workload.ScenarioPhases(workload.ScenarioNoise, 12000)
	if err != nil {
		t.Fatal(err)
	}
	for name, phases := range map[string][]workload.Phase{"spike": spike, "noise": noise} {
		a := fmt.Sprintf("%#v", mustRun(t, testConfig(), phases))
		b := fmt.Sprintf("%#v", mustRun(t, testConfig(), phases))
		if a != b {
			t.Fatalf("%s replay not byte-stable:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// TestControllerTelemetryPreservesDeterminism attaches a structured logger —
// the full telemetry path — and requires the status, audit trail included, to
// stay byte-identical with a silent replay. Audit events must derive only
// from stream time and decision data, never the wall clock.
func TestControllerTelemetryPreservesDeterminism(t *testing.T) {
	phases := []workload.Phase{{Queries: 6000, RateScale: 1.0}, {Queries: 8000, RateScale: 2.0}}

	silent := mustRun(t, testConfig(), phases)

	var buf strings.Builder
	cfg := testConfig()
	cfg.Logger = obs.NewLogger(&buf, slog.LevelDebug, obs.FormatText)
	logged := mustRun(t, cfg, phases)

	a := fmt.Sprintf("%#v", silent)
	b := fmt.Sprintf("%#v", logged)
	if a != b {
		t.Fatalf("telemetry changed the replay:\n%s\nvs\n%s", a, b)
	}
	if len(logged.Events) < 3 { // incumbent_established, shift_detected, reconfigure
		t.Fatalf("got %d audit events, want >= 3: %+v", len(logged.Events), logged.Events)
	}
	kinds := make(map[obs.EventKind]int)
	for _, ev := range logged.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.EventKind{"incumbent_established", "shift_detected", "reconfigure"} {
		if kinds[k] == 0 {
			t.Errorf("audit trail missing %q event: %+v", k, logged.Events)
		}
	}
	if !strings.Contains(buf.String(), "kind=reconfigure") {
		t.Errorf("logger mirror missing reconfigure line:\n%s", buf.String())
	}
}

// TestControllerMigrationVeto: on a load drop the incumbent still meets QoS
// and a cheaper pool exists, but a prohibitive teardown charge must keep the
// incumbent — and the controller must still update its load assessment so
// the detector does not re-trigger forever.
func TestControllerMigrationVeto(t *testing.T) {
	phases := []workload.Phase{{Queries: 6000, RateScale: 1.0}, {Queries: 6000, RateScale: 0.45}}

	// Default migration charges: the cheaper pool is applied.
	st := mustRun(t, testConfig(), phases)
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("got %d reconfigurations, want 1", len(st.Reconfigurations))
	}
	if rec := st.Reconfigurations[0]; !rec.Applied {
		t.Fatalf("downshift with default charges not applied: %+v", rec)
	} else if !rec.IncumbentMeetsQoS {
		t.Fatal("incumbent should still meet QoS at reduced load")
	} else if rec.ToCostPerHour >= rec.FromCostPerHour {
		t.Fatalf("downshift pool not cheaper: %+v", rec)
	}

	// Prohibitive teardown: the same shift is detected but vetoed.
	cfg := testConfig()
	cfg.Params.MigrationTeardownHours = 1000
	st = mustRun(t, cfg, phases)
	if len(st.Reconfigurations) != 1 {
		t.Fatalf("veto run: got %d reconfigurations, want 1", len(st.Reconfigurations))
	}
	rec := st.Reconfigurations[0]
	if rec.Applied {
		t.Fatalf("prohibitive migration charge was applied anyway: %+v", rec)
	}
	if !strings.Contains(rec.Reason, "migration") {
		t.Fatalf("veto reason %q does not mention migration", rec.Reason)
	}
	if st.Incumbent.Key() != rec.From.Key() {
		t.Fatalf("incumbent changed despite veto: %v -> %v", rec.From, st.Incumbent)
	}
	// The provisioned scale still tracked the real load.
	if st.AppliedScale > 0.6 {
		t.Fatalf("applied scale %g not updated after vetoed reconfiguration", st.AppliedScale)
	}
}

// TestControllerSurvivesQuietGap: a near-silent stretch (interarrival gaps
// longer than the estimator window, so the windowed estimate hits zero) must
// neither crash the controller nor disarm it — after traffic returns to a
// shifted level, the detector must still confirm it. Regression test for
// the est==0 hold and the minTargetScale floor.
func TestControllerSurvivesQuietGap(t *testing.T) {
	cfg := testConfig()
	phases := []workload.Phase{
		{Queries: 6000, RateScale: 1.0},
		// ~55 arrivals spread over ~135s of stream time: interarrival
		// ~2.4s, beyond the 2s window, so most ticks estimate zero.
		{Queries: 55, RateScale: 0.0005},
		{Queries: 8000, RateScale: 2.0},
	}
	st := mustRun(t, cfg, phases)
	if st.AppliedScale < minTargetScale {
		t.Fatalf("applied scale %g fell below the floor", st.AppliedScale)
	}
	// The final 2x phase must still be detected after the gap.
	last := st.Reconfigurations[len(st.Reconfigurations)-1]
	if last.NewScale < 1.5 {
		t.Fatalf("post-gap upshift not detected; history: %+v", st.Reconfigurations)
	}
	if !st.IncumbentMeetsQoS {
		t.Fatalf("final incumbent %v violates QoS", st.Incumbent)
	}
}

func TestControllerCancellation(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stream := workload.Generate(cfg.Spec.Model, workload.Options{Queries: 4000, Seed: 7})
	if _, err := c.Run(ctx, stream); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestControllerRunOnce(t *testing.T) {
	cfg := testConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Generate(cfg.Spec.Model, workload.Options{Queries: 3000, Seed: 7})
	if _, err := c.Run(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), stream); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	good := testConfig()
	for name, mutate := range map[string]func(*Config){
		"empty spec":        func(c *Config) { c.Spec = serving.PoolSpec{} },
		"bad bounds":        func(c *Config) { c.Bounds = []int{1} },
		"negative budget":   func(c *Config) { c.InitialBudget = -1 },
		"bad threshold":     func(c *Config) { c.Params.RelThreshold = 1.5 },
		"negative window":   func(c *Config) { c.Params.WindowMs = -1 },
		"negative scale":    func(c *Config) { c.Sim.RateScale = -2 },
		"negative cooldown": func(c *Config) { c.Params.CooldownMs = -1 },
		"unfound initial":   func(c *Config) { c.Initial = &core.SearchResult{} },
		"initial dim mismatch": func(c *Config) {
			c.Initial = &core.SearchResult{Found: true, BestConfig: serving.Config{1, 2}}
		},
	} {
		cfg := good
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestControllerEmptyStream(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), &workload.Stream{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}
