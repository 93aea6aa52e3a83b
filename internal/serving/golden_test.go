package serving_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ribbon/internal/chaos"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/evaluate_golden.txt from the current simulator")

const goldenPath = "testdata/evaluate_golden.txt"

// TestEvaluateGolden pins Evaluate's results across commits: one digest of
// the %#v-rendered Result per case. The MT-WND cases cover every built-in
// dispatch kind at 1x/2x/4x load, with and without capacity churn and early
// termination, on a 1:2:1 critical:standard:sheddable stream. The per-model
// cases run every Table 3 model on its diverse pool at the default stream
// length, as a planning search evaluates it. A refactor of the simulator or
// of the dispatch rules must leave every digest unchanged; a mismatch names
// its case. Regenerate with `go test ./internal/serving -run
// TestEvaluateGolden -update` only for an intended change of results.
func TestEvaluateGolden(t *testing.T) {
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	// Every churn transition lands inside the shortest (4x) stream, ~550 ms.
	storm := &chaos.Schedule{Events: []chaos.CapacityEvent{
		{AtMs: 50, Kind: chaos.KindSlowdown, Family: "r5n", Count: 1, Factor: 3, DurationMs: 300},
		{AtMs: 100, Kind: chaos.KindRevocation, Family: "g4dn", Count: 1, WarningMs: 150},
		{AtMs: 150, Kind: chaos.KindFailure, Family: "c5", Count: 1},
		{AtMs: 350, Kind: chaos.KindRestore, Family: "g4dn", Count: 1},
		{AtMs: 400, Kind: chaos.KindRestore, Family: "c5", Count: 1},
	}}
	mix := workload.ClassMix{Critical: 0.25, Standard: 0.5, Sheddable: 0.25}
	configs := []serving.Config{{3, 1, 3}, {1, 2, 1}, {2, 0, 4}, {5, 1, 0}, {1, 1, 1}}

	const queries = 1500
	got := map[string]string{}
	for _, kind := range dispatch.Kinds() {
		for _, scale := range []float64{1, 2, 4} {
			for _, churn := range []*chaos.Schedule{nil, storm} {
				for _, abort := range []int{0, 64} {
					opts := serving.SimOptions{
						Queries: queries, Seed: 11, RateScale: scale, Mix: mix,
						AbortQueueLength: abort, Dispatch: dispatch.Spec{Kind: kind},
						Churn: churn, ChurnWarmupMs: 200,
					}
					ev := serving.NewSimEvaluator(spec, opts)
					var obs pickCounter
					opts.Observer = &obs
					observed := serving.NewSimEvaluator(spec, opts)
					for _, cfg := range configs {
						name := fmt.Sprintf("%s/%gx/churn=%t/abort=%d/%s", kind, scale, churn != nil, abort, cfg.Key())
						res := fmt.Sprintf("%#v", ev.Evaluate(cfg))
						got[name] = digest(res)
						// An Observer is passive: same result, and one
						// report per arrival.
						obs.picks = 0
						if o := fmt.Sprintf("%#v", observed.Evaluate(cfg)); o != res {
							t.Errorf("%s: Observer changed the result:\n%s\nvs\n%s", name, o, res)
						}
						if obs.picks != queries {
							t.Errorf("%s: Observer saw %d picks, want %d", name, obs.picks, queries)
						}
					}
				}
			}
		}
	}

	// From a lone instance through overload to a comfortably provisioned
	// pool, with and without early termination. The pools come from
	// internal/experiments, which imports serving: that is why this file
	// is an external test package.
	modelConfigs := []serving.Config{{1, 0, 0}, {0, 1, 2}, {2, 2, 2}, {4, 0, 3}, {0, 6, 6}, {8, 4, 0}, {12, 6, 6}}
	for _, model := range experiments.ModelNames() {
		mspec := serving.MustNewPoolSpec(models.MustLookup(model), 0.99, experiments.PoolFor(model)...)
		for _, abort := range []int{0, 64} {
			ev := serving.NewSimEvaluator(mspec, serving.SimOptions{Seed: 11, AbortQueueLength: abort})
			for _, cfg := range modelConfigs {
				name := fmt.Sprintf("%s/default/abort=%d/%s", model, abort, cfg.Key())
				got[name] = digest(fmt.Sprintf("%#v", ev.Evaluate(cfg)))
			}
		}
	}

	if *updateGolden {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden digests (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, digest := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden digest", name)
		case w != digest:
			t.Errorf("%s: result digest %s, golden %s", name, digest, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest for a case the test no longer runs", name)
		}
	}
}

// digest is the first 8 bytes of a rendered Result's sha256, in hex.
func digest(res string) string {
	sum := sha256.Sum256([]byte(res))
	return hex.EncodeToString(sum[:8])
}

// pickCounter is a dispatch.Observer that counts reported picks. Evaluate
// reports from the calling goroutine only, so a plain counter suffices.
type pickCounter struct{ picks int }

func (c *pickCounter) ObservePick(policy string, seconds float64, rank int, shed bool) { c.picks++ }
