package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ribbon/api"
	"ribbon/internal/obs"
	"ribbon/internal/server"
)

// newTestPair spins a real in-process control plane and a client against it.
func newTestPair(t *testing.T) *Client {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, Logf: t.Logf})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return New(hs.URL)
}

func TestHealthAndCatalogs(t *testing.T) {
	c := newTestPair(t)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	models, err := c.Models(ctx)
	if err != nil || len(models) != 5 {
		t.Fatalf("models: %v (%d)", err, len(models))
	}
	instances, err := c.Instances(ctx)
	if err != nil || len(instances) != 8 {
		t.Fatalf("instances: %v (%d)", err, len(instances))
	}
}

func TestEvaluateRoundTrip(t *testing.T) {
	c := newTestPair(t)
	res, err := c.Evaluate(context.Background(), api.EvaluateRequest{
		ServiceSpec: api.ServiceSpec{
			Model:    "MT-WND",
			Families: []string{"g4dn", "t3"},
			Queries:  1500,
		},
		Config: []int{5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MeetsQoS || res.CostPerHour != 5*0.526 {
		t.Fatalf("unexpected evaluation: %+v", res)
	}
}

func TestErrorMapping(t *testing.T) {
	c := newTestPair(t)
	_, err := c.Evaluate(context.Background(), api.EvaluateRequest{
		ServiceSpec: api.ServiceSpec{Model: "nope"},
		Config:      []int{1},
	})
	if !IsCode(err, api.ErrUnknownModel) {
		t.Fatalf("want unknown_model, got %v", err)
	}
	ae, ok := err.(*api.Error)
	if !ok || ae.HTTPStatus != 400 {
		t.Fatalf("HTTPStatus not mapped: %#v", err)
	}

	_, err = c.Job(context.Background(), "job-404")
	if !IsCode(err, api.ErrNotFound) {
		t.Fatalf("want not_found, got %v", err)
	}
}

func TestJobFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	c := newTestPair(t)
	ctx := context.Background()
	job, err := c.CreateJob(ctx, api.OptimizeRequest{
		ServiceSpec: api.ServiceSpec{
			Model:    "MT-WND",
			Families: []string{"g4dn", "t3"},
			Queries:  4000,
		},
		Budget: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status.Terminal() {
		t.Fatalf("fresh job: %+v", job)
	}
	final, err := c.WaitJob(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone || final.Result == nil || !final.Result.Found {
		t.Fatalf("job did not succeed: %+v", final)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs: %v (%d)", err, len(jobs))
	}
}

// A dispatch policy and class mix ride through POST /v1/jobs end to end: the
// job echoes them back, runs the search under the selected policy, and a
// mixed-criticality evaluate reports shed/class stats.
func TestJobWithDispatchPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	c := newTestPair(t)
	ctx := context.Background()
	req := api.OptimizeRequest{
		ServiceSpec: api.ServiceSpec{
			Model:    "MT-WND",
			Families: []string{"g4dn", "t3"},
			Queries:  2000,
			Dispatch: &api.DispatchSpec{Policy: api.DispatchCriticality, ShedQueueLength: 8},
			ClassMix: &api.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2},
		},
		Budget: 15,
	}
	job, err := c.CreateJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if job.Request.Dispatch == nil || job.Request.Dispatch.Policy != api.DispatchCriticality {
		t.Fatalf("job does not echo the dispatch spec: %+v", job.Request)
	}
	final, err := c.WaitJob(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone || final.Result == nil {
		t.Fatalf("job did not finish: %+v", final)
	}

	// The policy is rejected when unknown — through the same client path.
	bad := req
	bad.Dispatch = &api.DispatchSpec{Policy: "speedy"}
	if _, err := c.CreateJob(ctx, bad); !IsCode(err, api.ErrInvalidRequest) {
		t.Fatalf("unknown policy not rejected: %v", err)
	}

	// Mixed-criticality evaluate under overload reports shedding.
	res, err := c.Evaluate(ctx, api.EvaluateRequest{
		ServiceSpec: api.ServiceSpec{
			Model:     "MT-WND",
			Families:  []string{"g4dn", "t3"},
			Queries:   2000,
			RateScale: 4,
			Dispatch:  &api.DispatchSpec{Policy: api.DispatchCriticality},
			ClassMix:  &api.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2},
		},
		Config: []int{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != string(api.DispatchCriticality) {
		t.Fatalf("response policy = %q", res.Policy)
	}
	if res.ShedRate <= 0 || len(res.Classes) != 3 {
		t.Fatalf("expected shedding and class stats under 4x load: %+v", res)
	}
}

func TestJobCancelViaClient(t *testing.T) {
	c := newTestPair(t)
	ctx := context.Background()
	job, err := c.CreateJob(ctx, api.OptimizeRequest{
		ServiceSpec: api.ServiceSpec{
			Model:    "MT-WND",
			Families: []string{"g4dn", "t3"},
			Queries:  60000,
		},
		Budget: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start spending budget, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, err := c.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == api.JobRunning && j.Progress.Samples >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(ctx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobCancelled {
		t.Fatalf("status %q, want cancelled", final.Status)
	}
	if final.Result == nil || final.Result.Samples >= 100000 || final.Result.Samples < 1 {
		t.Fatalf("partial result missing or implausible: %+v", final.Result)
	}

	// Cancelling again is a structured conflict.
	_, err = c.CancelJob(ctx, job.ID)
	if !IsCode(err, api.ErrJobFinished) {
		t.Fatalf("want job_finished, got %v", err)
	}
}

func TestControllerFlow(t *testing.T) {
	c := newTestPair(t)
	ctx := context.Background()

	scenarios, err := c.Scenarios(ctx)
	if err != nil || len(scenarios) < 5 {
		t.Fatalf("scenarios: %v (%d)", err, len(scenarios))
	}

	ctl, err := c.CreateController(ctx, api.ControllerSpec{
		ServiceSpec:   api.ServiceSpec{Model: "MT-WND", Queries: 1500},
		Scenario:      "spike",
		TotalQueries:  12000,
		InitialBudget: 16,
		AdaptBudget:   10,
		WindowMs:      2000,
		TickMs:        250,
		RelThreshold:  0.3,
		DwellMs:       1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.ID == "" {
		t.Fatalf("no controller id: %+v", ctl)
	}

	listed, err := c.Controllers(ctx)
	if err != nil || len(listed) != 1 {
		t.Fatalf("controllers: %v (%d)", err, len(listed))
	}

	final, err := c.WaitController(ctx, ctl.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone {
		t.Fatalf("status %q (error %v)", final.Status, final.Error)
	}
	if final.Snapshot.State != "done" || final.Snapshot.Arrivals != 12000 {
		t.Fatalf("snapshot: %+v", final.Snapshot)
	}
	if len(final.Snapshot.Reconfigurations) == 0 || !final.Snapshot.Reconfigurations[0].Applied {
		t.Fatalf("spike reconfiguration missing: %+v", final.Snapshot.Reconfigurations)
	}

	// Unknown scenario is a structured error.
	_, err = c.CreateController(ctx, api.ControllerSpec{
		ServiceSpec: api.ServiceSpec{Model: "MT-WND"},
		Scenario:    "weekend",
	})
	if !IsCode(err, api.ErrInvalidRequest) {
		t.Fatalf("want invalid_request, got %v", err)
	}

	// Cancelling the finished run is a structured conflict.
	_, err = c.CancelController(ctx, ctl.ID)
	if !IsCode(err, api.ErrJobFinished) {
		t.Fatalf("want job_finished, got %v", err)
	}
}

// TestControllerChaosFlow: a chaos storm rides the controller spec through
// the wire — the run observes capacity events, records capacity-triggered
// reconfigurations, and reports the live/degraded pool fields; a bad storm
// spec is rejected client-side as a structured error.
func TestControllerChaosFlow(t *testing.T) {
	c := newTestPair(t)
	ctx := context.Background()

	ctl, err := c.CreateController(ctx, api.ControllerSpec{
		ServiceSpec:   api.ServiceSpec{Model: "MT-WND", Queries: 1500},
		Scenario:      "steady",
		TotalQueries:  8000,
		InitialBudget: 16,
		AdaptBudget:   10,
		WindowMs:      2000,
		TickMs:        250,
		RelThreshold:  0.3,
		DwellMs:       1000,
		UseSpot:       true,
		Chaos: &api.ChaosSpec{
			HorizonMs:            600_000,
			RevocationMultiplier: 2_000,
			WarningMs:            500,
			FailuresPerHour:      600,
			PriceStepMs:          2_000,
			PriceVolatility:      0.25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitController(ctx, ctl.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone {
		t.Fatalf("status %q (error %v)", final.Status, final.Error)
	}
	if final.Snapshot.CapacityEvents == 0 {
		t.Fatalf("storm reached no capacity events: %+v", final.Snapshot)
	}
	triggered := 0
	for _, r := range final.Snapshot.Reconfigurations {
		if r.Trigger != "" {
			triggered++
		}
	}
	if triggered == 0 {
		t.Fatalf("no capacity-triggered reconfigurations in %d total",
			len(final.Snapshot.Reconfigurations))
	}

	// A storm without a horizon is rejected before the run is created.
	_, err = c.CreateController(ctx, api.ControllerSpec{
		ServiceSpec: api.ServiceSpec{Model: "MT-WND"},
		Chaos:       &api.ChaosSpec{RevocationMultiplier: 1},
	})
	if !IsCode(err, api.ErrInvalidRequest) {
		t.Fatalf("want invalid_request for horizonless storm, got %v", err)
	}
}

func TestFleetFlow(t *testing.T) {
	c := newTestPair(t)
	ctx := context.Background()

	fl, err := c.CreateFleet(ctx, api.FleetSpec{
		Models: []api.FleetModelSpec{
			{ServiceSpec: api.ServiceSpec{Model: "CANDLE", Queries: 800}},
			{ServiceSpec: api.ServiceSpec{Model: "MT-WND", Queries: 800}, Weight: 2},
		},
		BudgetPerHour: 6.0,
		SearchBudget:  10,
		RefineBudget:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fl.ID == "" {
		t.Fatalf("no fleet id: %+v", fl)
	}

	listed, err := c.Fleets(ctx)
	if err != nil || len(listed) != 1 {
		t.Fatalf("fleets: %v (%d)", err, len(listed))
	}

	final, err := c.WaitFleet(ctx, fl.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.JobDone {
		t.Fatalf("status %q (error %v)", final.Status, final.Error)
	}
	snap := final.Snapshot
	if snap.State != "done" || len(snap.Models) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	for _, m := range snap.Models {
		if m.Allocation == nil {
			t.Fatalf("model %s missing allocation: %+v", m.Name, snap)
		}
	}
	if roundTrip, err := c.Fleet(ctx, fl.ID); err != nil || roundTrip.ID != fl.ID {
		t.Fatalf("get fleet: %v %+v", err, roundTrip)
	}

	// Schema violations surface as structured errors.
	_, err = c.CreateFleet(ctx, api.FleetSpec{BudgetPerHour: 5})
	if !IsCode(err, api.ErrInvalidRequest) {
		t.Fatalf("want invalid_request, got %v", err)
	}
	_, err = c.CreateFleet(ctx, api.FleetSpec{
		Models: []api.FleetModelSpec{{ServiceSpec: api.ServiceSpec{Model: "MT-WND"}}},
	})
	if !IsCode(err, api.ErrInvalidBudget) {
		t.Fatalf("want invalid_budget, got %v", err)
	}

	// Cancelling the finished run is a structured conflict.
	_, err = c.CancelFleet(ctx, fl.ID)
	if !IsCode(err, api.ErrJobFinished) {
		t.Fatalf("want job_finished, got %v", err)
	}
}

// overloadedHandler answers 503/overloaded for the first fail requests,
// then delegates; it counts every attempt. A non-empty retryAfter is sent
// as the Retry-After header of the 503s.
type overloadedHandler struct {
	mu         sync.Mutex
	fail       int
	seen       int
	retryAfter string
	inner      http.Handler
}

func (h *overloadedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.seen++
	overloaded := h.seen <= h.fail
	h.mu.Unlock()
	if overloaded {
		if h.retryAfter != "" {
			w.Header().Set("Retry-After", h.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"overloaded","message":"queue is full"}}`)
		return
	}
	h.inner.ServeHTTP(w, r)
}

func (h *overloadedHandler) attempts() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seen
}

// reset re-arms the handler to fail the next n requests.
func (h *overloadedHandler) reset(n int) {
	h.mu.Lock()
	h.fail, h.seen = n, 0
	h.mu.Unlock()
}

// TestRetryOverloaded is the regression test of the client's jittered
// backoff: transient 503/overloaded answers from the bounded worker pools
// are retried within the attempt bound, exhausted retries surface the
// overload error, and the backoff aborts promptly when the context ends.
func TestRetryOverloaded(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, Logf: t.Logf})
	t.Cleanup(srv.Close)

	// Two failures, then success: the third attempt lands.
	h := &overloadedHandler{fail: 2, inner: srv.Handler()}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	c := New(hs.URL, WithRetry(3, time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after transient overload: %v", err)
	}
	if got := h.attempts(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}

	// Persistent overload: the attempt bound caps the retries and the
	// overload error reaches the caller.
	h2 := &overloadedHandler{fail: 1 << 30, inner: srv.Handler()}
	hs2 := httptest.NewServer(h2)
	t.Cleanup(hs2.Close)
	c2 := New(hs2.URL, WithRetry(4, time.Millisecond))
	err := c2.Health(context.Background())
	if !IsCode(err, api.ErrOverloaded) {
		t.Fatalf("want overloaded, got %v", err)
	}
	if got := h2.attempts(); got != 4 {
		t.Fatalf("server saw %d attempts, want 4", got)
	}

	// Context-aware backoff: with a long backoff window, an expiring
	// context aborts the wait instead of sleeping it out. The equal-jitter
	// backoff sleeps at least half the base window, so the 50ms deadline
	// fires during the first backoff.
	c3 := New(hs2.URL, WithRetry(10, time.Minute))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c3.Health(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored the context for %v", elapsed)
	}

	// WithRetry(1) disables retrying outright.
	h3 := &overloadedHandler{fail: 1, inner: srv.Handler()}
	hs3 := httptest.NewServer(h3)
	t.Cleanup(hs3.Close)
	c4 := New(hs3.URL, WithRetry(1, time.Millisecond))
	if err := c4.Health(context.Background()); !IsCode(err, api.ErrOverloaded) {
		t.Fatalf("want overloaded without retry, got %v", err)
	}
	if got := h3.attempts(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// TestRetryBackoffLogging: with WithLogger attached, each retried attempt
// emits one structured backoff event naming the route and sleep.
func TestRetryBackoffLogging(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, Logf: t.Logf})
	t.Cleanup(srv.Close)
	h := &overloadedHandler{fail: 2, inner: srv.Handler()}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)

	var buf bytes.Buffer
	c := New(hs.URL,
		WithRetry(3, time.Millisecond),
		WithLogger(obs.NewLogger(&buf, slog.LevelInfo, obs.FormatText)))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after transient overload: %v", err)
	}
	logged := buf.String()
	if got := strings.Count(logged, `msg="overloaded; backing off"`); got != 2 {
		t.Fatalf("backoff events = %d, want 2:\n%s", got, logged)
	}
	for _, want := range []string{"path=/healthz", "method=GET", "attempt=1", "attempt=2", "sleep_ms="} {
		if !strings.Contains(logged, want) {
			t.Errorf("backoff log missing %q:\n%s", want, logged)
		}
	}

	// A logger-less client stays silent and still works.
	h.reset(1)
	if err := New(hs.URL, WithRetry(2, time.Millisecond)).Health(context.Background()); err != nil {
		t.Fatalf("health without logger: %v", err)
	}
}

// TestParseRetryAfter covers both RFC 9110 header forms and the cap that
// keeps a hostile or misconfigured server from parking the retry loop.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"30", 30 * time.Second},
		{"-5", 0},
		{"soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form: a date in the future yields a positive delay, a past
	// date none.
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 10*time.Second {
		t.Errorf("parseRetryAfter(%q) = %v, want ~10s", future, got)
	}
	past := time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("parseRetryAfter(%q) = %v, want 0", past, got)
	}

	if got := retryAfterOf(&api.Error{Code: api.ErrOverloaded, RetryAfter: time.Hour}); got != maxRetryAfter {
		t.Errorf("retryAfterOf(1h) = %v, want capped %v", got, maxRetryAfter)
	}
	if got := retryAfterOf(errors.New("plain")); got != 0 {
		t.Errorf("retryAfterOf(non-api error) = %v, want 0", got)
	}
}

// TestRetryHonorsRetryAfter: when a 503 names a Retry-After longer than the
// jittered backoff window, the client waits the server-suggested delay
// before the next attempt, and the decoded error carries the hint.
func TestRetryHonorsRetryAfter(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, Logf: t.Logf})
	t.Cleanup(srv.Close)
	h := &overloadedHandler{fail: 1, retryAfter: "1", inner: srv.Handler()}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)

	// Millisecond backoff base: any wait near a second is the header's.
	c := New(hs.URL, WithRetry(2, time.Millisecond))
	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after hinted overload: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, before the 1s Retry-After hint", elapsed)
	}
	if got := h.attempts(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}

	// The hint is visible on the surfaced error too.
	c2 := New(hs.URL, WithRetry(1, time.Millisecond))
	h.reset(1)
	err := c2.Health(context.Background())
	var ae *api.Error
	if !errors.As(err, &ae) || ae.RetryAfter != time.Second {
		t.Fatalf("error does not carry the Retry-After hint: %v", err)
	}
}
