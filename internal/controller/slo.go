package controller

import (
	"fmt"
	"sort"
	"strconv"

	"ribbon/internal/chaos"
	"ribbon/internal/core"
	"ribbon/internal/obs"
	"ribbon/internal/slo"
	"ribbon/internal/workload"
)

// SLOConfig attaches an slo.Engine to the control loop. The engine samples
// a deterministic indicator at every tick — the live pool's QoS attainment
// under the current slowdown ledger, measured by a cached evaluation — so
// seeded replays stay byte-identical with the engine enabled. With Trigger
// set, a firing page alert becomes the "slo" capacity trigger: the
// controller's response to degradation that changes no pool membership
// (stragglers, overload) and is therefore invisible to the revocation and
// price paths.
type SLOConfig struct {
	// Target is the QoS-attainment objective in (0,1); the spec's
	// QoSPercentile when 0.
	Target float64
	// Rules are the burn-rate alert rules; slo.DefaultRules scaled to the
	// estimator window when nil.
	Rules []slo.Rule
	// MinEvents is the per-window sample floor before a rule may fire
	// (each tick contributes one event); 5 when 0, negative disables.
	MinEvents float64
	// Trigger arms the "slo" capacity trigger on firing page alerts. With
	// Trigger false the engine still measures and alerts — the baseline
	// leg of the triggers-on/off comparison.
	Trigger bool
}

// slowdownWindow is one family's entry in the straggler ledger: the worst
// currently active slowdown the controller has witnessed.
type slowdownWindow struct {
	count   int
	factor  float64
	untilMs float64
}

// slowdownEvalHorizonMs makes a ledger-derived churn event outlast any
// evaluation: the evaluator measures the pool as slowed for its whole
// stream, which is what "this family is slow right now" means to a search.
const slowdownEvalHorizonMs = 1e12

// initSLO builds the tick-driven engine from cfg.SLO; called once from New.
func (c *Controller) initSLO() error {
	s := c.cfg.SLO
	if s == nil {
		return nil
	}
	target := s.Target
	if target == 0 {
		target = c.cfg.Spec.QoSPercentile
	}
	rules := s.Rules
	if rules == nil {
		rules = slo.DefaultRules(c.cfg.Params.WindowMs)
	}
	minEvents := s.MinEvents
	if minEvents == 0 {
		minEvents = 5
	}
	eng, err := slo.New(slo.Config{Rules: rules, MinEvents: minEvents, Trail: c.trail})
	if err != nil {
		return err
	}
	// The indicator protects the critical tier: the critical class's
	// attainment when the evaluation stream carries classes, the pool-wide
	// attainment otherwise. Sample is only invoked by Observe under c.mu.
	err = eng.Add(slo.Indicator{
		Name:   "qos_attainment/critical",
		Tier:   string(workload.ClassCritical),
		Kind:   "qos_attainment",
		Target: target,
		Sample: func() (good, total float64) { return c.sloGood, c.sloTotal },
	})
	if err != nil {
		return err
	}
	c.sloEngine = eng
	return nil
}

// observeSLOLocked samples the indicator at this tick and arms the "slo"
// trigger on a firing page alert.
func (c *Controller) observeSLOLocked(nowMs float64) {
	if c.sloEngine == nil || !c.hasIncumbent {
		return
	}
	c.sloGood += c.sloAttainmentLocked()
	c.sloTotal++
	transitions := c.sloEngine.Observe(nowMs)
	if !c.cfg.SLO.Trigger {
		return
	}
	for _, a := range transitions {
		if a.State == slo.StateFiring && a.Severity == slo.SeverityPage {
			c.armSLOLocked(a)
		}
	}
	// The pending slo bit tracks the live alert state: a response that did
	// not fix the burn re-arms for a retry once the cooldown allows, and
	// an alert that resolves before the response fired stands the trigger
	// down.
	c.pending.set(triggerSLO, c.sloEngine.Firing(string(workload.ClassCritical), slo.SeverityPage))
}

// armSLOLocked turns a firing page alert into the pending "slo" trigger and
// records the arming event the recovery clock starts from.
func (c *Controller) armSLOLocked(a slo.Alert) {
	c.pending.set(triggerSLO, true)
	c.trail.Record(a.AtMs, "slo_breach", "page alert on "+a.Indicator+" arms emergency re-search",
		obs.F("indicator", a.Indicator),
		obs.F("tier", a.Tier),
		obs.F("burn", a.Burn),
		obs.F("error_rate", a.ErrorRate),
	)
}

// ObserveSLO feeds one externally measured alert transition into the
// controller from a live driver (the gateway's SLO engine over real request
// outcomes). Only firing page alerts act — they arm the "slo" capacity
// trigger, answered at the next tick behind the anti-thrash cooldown. Safe
// for concurrent use with Run/RunLive.
func (c *Controller) ObserveSLO(a slo.Alert) {
	if a.State != slo.StateFiring || a.Severity != slo.SeverityPage {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armSLOLocked(a)
}

// sloAttainmentLocked measures the live pool's QoS attainment under the
// slowdown ledger. The evaluation is deterministic in (live config,
// ledger, applied scale), so it is cached on that signature — steady state
// costs a string compare per tick, and only ledger or pool transitions pay
// for a fresh evaluation.
func (c *Controller) sloAttainmentLocked() float64 {
	live := c.liveConfigLocked()
	sig := live.Key() + "|" + c.slowdownSigLocked() + "|" +
		strconv.FormatFloat(c.stat.AppliedScale, 'g', -1, 64)
	if sig == c.sloEvalSig {
		return c.sloEvalRsat
	}
	ev := c.evaluatorForSpec(c.cfg.Spec, c.stat.AppliedScale, c.slowdownChurnLocked())
	res := ev.Evaluate(live)
	rsat := res.Rsat
	if cs, ok := res.ClassStat(workload.ClassCritical); ok && cs.Queries > 0 {
		rsat = cs.Rsat
	}
	c.sloEvalSig, c.sloEvalRsat = sig, rsat
	return rsat
}

// observeSlowdownLocked folds a straggler event into the per-family ledger,
// keeping the worst active window per family.
func (c *Controller) observeSlowdownLocked(ev chaos.CapacityEvent) {
	w := c.slowdowns[ev.Family]
	if ev.Count > w.count {
		w.count = ev.Count
	}
	if ev.Factor > w.factor {
		w.factor = ev.Factor
	}
	if until := ev.AtMs + ev.DurationMs; until > w.untilMs {
		w.untilMs = until
	}
	c.slowdowns[ev.Family] = w
}

// expireSlowdownsLocked drops ledger entries whose window has passed.
func (c *Controller) expireSlowdownsLocked(nowMs float64) {
	for fam, w := range c.slowdowns {
		if nowMs >= w.untilMs {
			delete(c.slowdowns, fam)
		}
	}
}

// slowdownSigLocked is the deterministic cache key of the ledger state.
func (c *Controller) slowdownSigLocked() string {
	if len(c.slowdowns) == 0 {
		return ""
	}
	fams := make([]string, 0, len(c.slowdowns))
	for fam := range c.slowdowns {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	sig := ""
	for _, fam := range fams {
		w := c.slowdowns[fam]
		sig += fmt.Sprintf("%s:%d:%g;", fam, w.count, w.factor)
	}
	return sig
}

// churnSearchOptions adapts the search options to an active churn schedule.
// Family-targeted slowdowns break the monotonicity that dominance pruning
// relies on: adding instances of a slowed family adds straggling servers,
// so a large pool that fails QoS no longer condemns its down-set — the
// all-bounds corner can fail while a subset avoiding the slowed family
// passes. A pruned re-search would blanket the box from the corner's
// ceiling and exhaust after two samples; the churned space is searched
// unpruned instead.
func (c *Controller) churnSearchOptions(churn *chaos.Schedule) core.Options {
	opts := c.cfg.Search
	if churn != nil && !churn.Empty() {
		opts.DisablePruning = true
	}
	return opts
}

// slowdownChurnLocked compiles the ledger into a synthetic full-horizon
// churn schedule for evaluators, so searches measure candidate pools with
// the slowed families actually slow instead of at catalog speed. Nil when
// the ledger is empty — the no-churn fast path stays bit-identical.
func (c *Controller) slowdownChurnLocked() *chaos.Schedule {
	if len(c.slowdowns) == 0 {
		return nil
	}
	fams := make([]string, 0, len(c.slowdowns))
	for fam := range c.slowdowns {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	s := &chaos.Schedule{}
	for _, fam := range fams {
		w := c.slowdowns[fam]
		s.Events = append(s.Events, chaos.CapacityEvent{
			Kind:       chaos.KindSlowdown,
			Family:     fam,
			Count:      w.count,
			Factor:     w.factor,
			DurationMs: slowdownEvalHorizonMs,
		})
	}
	return s
}
