package main

import (
	"sync"
	"sync/atomic"

	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// policyProbe counts routing work in traced runs. It is a dispatch.Spec
// factory that builds the configured built-in policy and wraps it, so every
// evaluation run announces itself and counts its picks and sheds.
//
// SimOptions.Observer would give the same counts, but its hook reads the
// clock twice per pick, which more than doubled the traced evaluation time
// on a 2-vCPU VM and would hide the simulator's own cost. The wrapper reads
// the clock only when a run starts and when its last expected pick is made.
type policyProbe struct {
	kind dispatch.Kind
	tr   *tracer
	// queries is the arrivals per evaluation; its last pick stamps the
	// run's end.
	queries int64
	mu      sync.Mutex
	runs    []*policyRun
}

// policyRun is one evaluation's routing: its start and end on the tracer's
// clock (end 0 until the last pick) and its counts.
type policyRun struct {
	start int64
	end   atomic.Int64
	picks atomic.Int64
	sheds atomic.Int64
}

func (p *policyProbe) spec() dispatch.Spec {
	return dispatch.Spec{Factory: func(pool []cloud.InstanceType, rng *stats.RNG) dispatch.Policy {
		inner := dispatch.Spec{Kind: p.kind}.MustNew(pool, rng)
		run := &policyRun{start: p.tr.now()}
		p.mu.Lock()
		p.runs = append(p.runs, run)
		p.mu.Unlock()
		c := counted{Policy: inner, run: run, probe: p}
		if _, ok := inner.(dispatch.Lifecycle); ok {
			return countedLifecycle{c}
		}
		return c
	}}
}

// totals sums picks and sheds over every run so far.
func (p *policyProbe) totals() (picks, sheds int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.runs {
		picks += r.picks.Load()
		sheds += r.sheds.Load()
	}
	return picks, sheds
}

type counted struct {
	dispatch.Policy
	run   *policyRun
	probe *policyProbe
}

func (c counted) Pick(idx int, q workload.Query, s *dispatch.State) dispatch.Decision {
	d := c.Policy.Pick(idx, q, s)
	if c.run.picks.Add(1) == c.probe.queries {
		c.run.end.Store(c.probe.tr.now())
	}
	if d.Action == dispatch.ActShed {
		c.run.sheds.Add(1)
	}
	return d
}

type countedLifecycle struct{ counted }

func (c countedLifecycle) RunStart(s *dispatch.State) { c.Policy.(dispatch.Lifecycle).RunStart(s) }

func (c countedLifecycle) QueryDone(idx, inst int, s *dispatch.State) {
	c.Policy.(dispatch.Lifecycle).QueryDone(idx, inst, s)
}
