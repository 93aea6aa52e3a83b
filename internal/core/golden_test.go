package core_test

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

	"ribbon/internal/core"
	"ribbon/internal/experiments"
	"ribbon/internal/models"
	"ribbon/internal/serving"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.txt from the current search")

const (
	goldenPath   = "testdata/search_golden.txt"
	goldenBudget = 60
	goldenMaxPer = 24 // DiscoverBounds cap, as a planning run uses
)

// TestSearchGolden pins BO search trajectories across commits: for every
// Table 3 model on its diverse pool, several seeds and the modes {auto,
// serial, speculative}, one digest per committed step (the %#v-rendered
// Step: configuration, simulated result, objective, incumbent cost). The
// surrogate, the acquisition scan and the liar chain may be rewritten for
// speed, but every step of every case must keep its digest; a mismatch names
// the case and the first step that diverged. Regenerate with `go test
// ./internal/core -run TestSearchGolden -update` only for an intended change
// of trajectories.
func TestSearchGolden(t *testing.T) {
	modes := []struct {
		name string
		opts core.Options
	}{
		{"auto", core.Options{Parallelism: 2}},
		{"serial", core.Options{Mode: core.ModeSerial}},
		{"speculative", core.Options{Parallelism: 2, Mode: core.ModeSpeculative}},
	}
	got := map[string][]string{}
	for _, model := range experiments.ModelNames() {
		spec := serving.MustNewPoolSpec(models.MustLookup(model), 0.99, experiments.PoolFor(model)...)
		for _, seed := range []uint64{1, 2, 3} {
			ev := serving.NewCachingEvaluator(serving.NewSimEvaluator(spec, serving.SimOptions{Seed: seed}))
			bounds, err := core.DiscoverBounds(ev, goldenMaxPer)
			if err != nil {
				t.Fatalf("%s seed %d: bounds: %v", model, seed, err)
			}
			for _, m := range modes {
				name := fmt.Sprintf("%s/seed=%d/%s", model, seed, m.name)
				res := core.NewSearcher(ev, bounds, seed, m.opts).Run(goldenBudget)
				steps := []string{"bounds=" + serving.Config(bounds).Key()}
				for _, st := range res.Steps {
					steps = append(steps, stepDigest(st))
				}
				got[name] = steps
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
			fmt.Fprintf(&b, "%s %s\n", name, strings.Join(got[name], " "))
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
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]] = fields[1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, steps := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden digests", name)
			continue
		}
		// The first field is the discovered bounds, then one digest per step.
		for i := 0; i < len(steps) || i < len(w); i++ {
			var g, x string
			if i < len(steps) {
				g = steps[i]
			}
			if i < len(w) {
				x = w[i]
			}
			if g != x {
				if i == 0 {
					t.Errorf("%s: bounds %s, golden %s", name, g, x)
				} else {
					t.Errorf("%s: step %d digest %q, golden %q", name, i-1, g, x)
				}
				break
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digests for a case the test no longer runs", name)
		}
	}
}

// stepDigest is the first 4 bytes of a rendered Step's sha256, in hex.
func stepDigest(st core.Step) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", st)))
	return hex.EncodeToString(sum[:4])
}
