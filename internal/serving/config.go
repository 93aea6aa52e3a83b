// Package serving simulates a heterogeneous pool of cloud instances serving
// an inference query stream: every arrival is routed by a pluggable dispatch
// policy (internal/dispatch — the default reproduces the paper's
// first-come-first-serve preference-order rule of Sec. 5.1 bit for bit),
// each query's latency is queueing wait plus modeled service time, and a
// configuration's quality is its QoS satisfaction rate Rsat (fraction of
// queries within the model's tail-latency target) together with its $/hour
// price.
//
// Evaluating one configuration is the "costly black-box sample" that Ribbon's
// Bayesian optimizer minimizes. The event loop merges an arrival cursor with
// a typed completions heap (completionHeap, a FIFO-on-ties min-heap of plain
// values) over a sync.Pool buffer arena, so one evaluation
// costs ~11 allocations and is safe to run concurrently — see
// docs/performance.md. The CachingEvaluator adds memoization, the
// exploration-cost accounting behind Figs. 13 and 14, and the uncharged
// speculative Lookahead the parallel search drives.
package serving

import (
	"fmt"
	"strconv"
	"strings"

	"ribbon/internal/cloud"
	"ribbon/internal/models"
)

// Config is an instance-count vector: Config[i] instances of the pool's i-th
// type. It is the variable x of the paper's Eq. 2.
type Config []int

// Key returns a canonical string form, e.g. "3+4+0", usable as a map key.
func (c Config) Key() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, "+")
}

// String returns the paper's (x1 + x2 + ...) notation.
func (c Config) String() string { return "(" + strings.Join(strings.Split(c.Key(), "+"), " + ") + ")" }

// Clone returns an independent copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Total returns the total instance count.
func (c Config) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// DominatedBy reports whether c <= other component-wise. If a configuration
// violates QoS, every configuration it dominates (every c with c <= other)
// must also violate it — the monotonicity behind Ribbon's active pruning.
func (c Config) DominatedBy(other Config) bool {
	if len(c) != len(other) {
		panic("serving: config length mismatch")
	}
	for i := range c {
		if c[i] > other[i] {
			return false
		}
	}
	return true
}

// ParseConfig parses the Key form "3+4+0".
func ParseConfig(s string) (Config, error) {
	parts := strings.Split(s, "+")
	out := make(Config, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("serving: bad config %q: %w", s, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("serving: negative count in config %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// PoolSpec fixes the searchable pool for one model: the model profile, the
// ordered instance types (Table 3 order — dispatch preference follows it),
// and the QoS percentile target.
type PoolSpec struct {
	// Model is the served model profile.
	Model models.Profile
	// Types is the ordered list of instance types in the pool.
	Types []cloud.InstanceType
	// QoSPercentile is T_qos, e.g. 0.99 for a p99 target (the default) or
	// 0.98 for the relaxed target of Fig. 15.
	QoSPercentile float64
}

// NewPoolSpec builds a pool spec from instance family names, resolving them
// against the cloud catalog.
func NewPoolSpec(m models.Profile, qosPercentile float64, families ...string) (PoolSpec, error) {
	if qosPercentile <= 0 || qosPercentile >= 1 {
		return PoolSpec{}, fmt.Errorf("serving: QoS percentile %g out of (0,1)", qosPercentile)
	}
	if len(families) == 0 {
		return PoolSpec{}, fmt.Errorf("serving: pool needs at least one instance type")
	}
	types := make([]cloud.InstanceType, len(families))
	seen := map[string]bool{}
	for i, f := range families {
		if seen[f] {
			return PoolSpec{}, fmt.Errorf("serving: duplicate family %q in pool", f)
		}
		seen[f] = true
		t, err := cloud.Lookup(f)
		if err != nil {
			return PoolSpec{}, err
		}
		types[i] = t
	}
	return PoolSpec{Model: m, Types: types, QoSPercentile: qosPercentile}, nil
}

// MustNewPoolSpec is NewPoolSpec but panics on error; for fixed paper tables.
func MustNewPoolSpec(m models.Profile, qosPercentile float64, families ...string) PoolSpec {
	s, err := NewPoolSpec(m, qosPercentile, families...)
	if err != nil {
		panic(err)
	}
	return s
}

// Cost returns the $/hour of running cfg under this spec.
func (s PoolSpec) Cost(cfg Config) float64 {
	if len(cfg) != len(s.Types) {
		panic("serving: config does not match pool spec")
	}
	return cloud.PoolCost(s.Types, []int(cfg))
}

// Dim returns the search-space dimensionality (number of instance types).
func (s PoolSpec) Dim() int { return len(s.Types) }
