package controller

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/core"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
)

const msPerHour = 3600000.0

// trigger is one reason for an out-of-band capacity re-search. The
// constants are declared in precedence order: when several are pending at
// a tick, the first one answers them all.
type trigger uint8

const (
	triggerEmergency trigger = iota // an incumbent instance hard-failed
	triggerDrain                    // a spot revocation warning
	triggerSLO                      // a page alert on the critical tier
	triggerPrice                    // the spot market moved past threshold
)

// String is the trigger's name in Reconfiguration.Trigger and the audit
// trail.
func (t trigger) String() string {
	return [...]string{"emergency", "drain", "slo", "price"}[t]
}

// triggerSet holds the pending triggers, one bit per kind. It is a set
// rather than a single highest value because the slo bit also clears on
// its own when its alert resolves.
type triggerSet uint8

func (s *triggerSet) set(t trigger, on bool) {
	if on {
		*s |= 1 << t
	} else {
		*s &^= 1 << t
	}
}

// first returns the highest-precedence pending trigger.
func (s triggerSet) first() (trigger, bool) {
	return trigger(bits.TrailingZeros8(uint8(s))), s != 0
}

// ObserveCapacity feeds one capacity event into the controller from a live
// driver (the gateway's pool-health input). Revocations and failures mark
// incumbent instances as gone — the snapshot immediately reports the
// degraded LiveConfig — and arm the matching response, which fires at the
// next tick on the control goroutine. Safe for concurrent use with
// Run/RunLive.
func (c *Controller) ObserveCapacity(ev chaos.CapacityEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeCapacityLocked(ev)
}

// ingestChaosLocked replays the configured schedule up to nowMs. Events are
// applied in canonical order at tick boundaries, so a replay of the same
// (seed, stream, schedule) triple reproduces the same decision history.
func (c *Controller) ingestChaosLocked(nowMs float64) {
	evs := c.cfg.Chaos.Events
	for c.chaosIdx < len(evs) && evs[c.chaosIdx].AtMs <= nowMs {
		c.observeCapacityLocked(evs[c.chaosIdx])
		c.chaosIdx++
	}
}

func (c *Controller) observeCapacityLocked(ev chaos.CapacityEvent) {
	c.accrueLocked(ev.AtMs)
	c.stat.CapacityEvents++
	slot := -1
	for i, t := range c.cfg.Spec.Types {
		if t.Family == ev.Family {
			slot = i
			break
		}
	}
	switch ev.Kind {
	case chaos.KindRevocation, chaos.KindFailure:
		if slot < 0 || !c.hasIncumbent {
			return
		}
		take := ev.Count
		if have := c.incumbent.Config[slot] - c.lost[slot]; take > have {
			take = have
		}
		if take <= 0 {
			return
		}
		c.lost[slot] += take
		kind, msg := obs.EventKind("capacity_warning"), "spot revocation warning"
		if ev.Kind == chaos.KindFailure {
			kind, msg = obs.EventKind("capacity_failure"), "instance hard failure"
			c.pending.set(triggerEmergency, true)
		} else {
			c.pending.set(triggerDrain, true)
		}
		c.refreshLiveLocked()
		c.trail.Record(ev.AtMs, kind, fmt.Sprintf("%s: %d %s", msg, take, ev.Family),
			obs.F("family", ev.Family),
			obs.F("count", take),
			obs.F("effective_ms", ev.EffectiveMs()),
			obs.F("live", c.stat.LiveConfig.Key()),
		)
	case chaos.KindRestore:
		if slot < 0 {
			return
		}
		back := ev.Count
		if back > c.lost[slot] {
			back = c.lost[slot]
		}
		if back <= 0 {
			return
		}
		c.lost[slot] -= back
		c.refreshLiveLocked()
		c.trail.Record(ev.AtMs, "capacity_restored", fmt.Sprintf("capacity restored: %d %s", back, ev.Family),
			obs.F("family", ev.Family),
			obs.F("count", back),
			obs.F("live", c.stat.LiveConfig.Key()),
		)
	case chaos.KindSlowdown:
		// Stragglers degrade service speed, not pool membership, so no
		// trigger arms here — the ledger makes every later evaluation see
		// the slowed family, and the SLO engine (when configured) turns
		// the resulting attainment drop into the "slo" trigger.
		c.observeSlowdownLocked(ev)
		c.trail.Record(ev.AtMs, "capacity_slowdown", fmt.Sprintf("straggler injection: %d %s x%.3g",
			ev.Count, ev.Family, ev.Factor),
			obs.F("family", ev.Family),
			obs.F("count", ev.Count),
			obs.F("factor", ev.Factor),
			obs.F("until_ms", ev.AtMs+ev.DurationMs),
		)
	case chaos.KindPrice:
		c.market[ev.Family] = ev.Factor
		if !c.cfg.UseSpot || slot < 0 {
			return
		}
		last := c.lastMarket[ev.Family]
		if last == 0 {
			last = 1
		}
		rel := math.Abs(ev.Factor/last - 1)
		if rel >= c.cfg.Params.PriceRelThreshold {
			c.pending.set(triggerPrice, true)
			c.trail.Record(ev.AtMs, "price_move", fmt.Sprintf("spot market moved %.1f%% on %s",
				rel*100, ev.Family),
				obs.F("family", ev.Family),
				obs.F("factor", ev.Factor),
				obs.F("last_factor", last),
			)
		}
	}
}

// refreshLiveLocked re-derives the published live view from the degradation
// ledger.
func (c *Controller) refreshLiveLocked() {
	c.stat.LiveConfig = c.liveConfigLocked()
	c.stat.Degraded = false
	for _, n := range c.lost {
		if n > 0 {
			c.stat.Degraded = true
			break
		}
	}
}

// liveConfigLocked is the incumbent minus lost capacity — the pool that
// actually exists right now.
func (c *Controller) liveConfigLocked() serving.Config {
	live := c.incumbent.Config.Clone()
	for i := range live {
		live[i] -= c.lost[i]
		if live[i] < 0 {
			live[i] = 0
		}
	}
	return live
}

// marketFactorLocked is the last observed spot-market factor for a family,
// 1.0 before any price event.
func (c *Controller) marketFactorLocked(family string) float64 {
	if f, ok := c.market[family]; ok {
		return f
	}
	return 1
}

// pricedSpecLocked returns the spec every search and migration estimate
// prices against: the configured spec verbatim for on-demand pools, or a
// copy with each type repriced to its current spot-market rate when UseSpot.
func (c *Controller) pricedSpecLocked() serving.PoolSpec {
	if !c.cfg.UseSpot {
		return c.cfg.Spec
	}
	spec := c.cfg.Spec
	spec.Types = append([]cloud.InstanceType(nil), spec.Types...)
	for i, t := range spec.Types {
		spec.Types[i] = t.SpotPriced(c.marketFactorLocked(t.Family))
	}
	return spec
}

// liveCostPerHourLocked prices the capacity that exists right now at the
// rates actually being paid.
func (c *Controller) liveCostPerHourLocked() float64 {
	if !c.hasIncumbent {
		return 0
	}
	total := 0.0
	for i, t := range c.cfg.Spec.Types {
		n := c.incumbent.Config[i] - c.lost[i]
		if n <= 0 {
			continue
		}
		price := t.PricePerHour
		if c.cfg.UseSpot {
			price = t.SpotPrice(c.marketFactorLocked(t.Family))
		}
		total += float64(n) * price
	}
	return total
}

// accrueLocked integrates the spend meter up to nowMs at the current live
// pool and prices. Called before any state change that alters either.
func (c *Controller) accrueLocked(nowMs float64) {
	if nowMs > c.accrualLastMs {
		if c.hasIncumbent {
			c.stat.AccruedCost += c.liveCostPerHourLocked() * (nowMs - c.accrualLastMs) / msPerHour
		}
		c.accrualLastMs = nowMs
	}
}

// syncMarketLocked stamps the market factors a reconfiguration decision was
// priced at; the next price trigger measures its move against these.
func (c *Controller) syncMarketLocked() {
	for fam, f := range c.market {
		c.lastMarket[fam] = f
	}
}

// reconfigureCapacity handles one confirmed capacity trigger: an emergency
// re-search after a hard failure, a drain-window replacement search after a
// revocation warning, or a price-aware re-optimization after a spot-market
// move. Unlike the load path it starts from the live (possibly degraded)
// pool, searches the spot-priced space when UseSpot, and afterwards arms the
// emergency cooldown so a storm's remaining casualties consolidate into one
// later response instead of a search each.
func (c *Controller) reconfigureCapacity(ctx context.Context, nowMs float64, trigger string, est float64) (*Reconfiguration, error) {
	c.mu.Lock()
	scale := c.stat.AppliedScale
	prevSteps := c.lastSteps
	incumbent := c.incumbent
	live := c.liveConfigLocked()
	spec := c.pricedSpecLocked()
	churn := c.slowdownChurnLocked()
	seed := c.cfg.Sim.Seed + uint64(c.searches)
	c.mu.Unlock()

	ev := c.evaluatorForSpec(spec, scale, churn)
	s := core.NewAdaptedSearcher(ev, c.bounds, seed, c.churnSearchOptions(churn), prevSteps, incumbent)
	res := s.RunContext(ctx, c.cfg.Params.AdaptBudget)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	liveNow := ev.Evaluate(live)

	rec := Reconfiguration{
		AtMs:              nowMs,
		Trigger:           trigger,
		ObservedScale:     est,
		OldScale:          scale,
		NewScale:          scale,
		From:              live.Clone(),
		FromCostPerHour:   liveNow.CostPerHour,
		IncumbentMeetsQoS: liveNow.MeetsQoS,
		Samples:           res.Samples,
	}
	next := liveNow
	switch {
	case !res.Found:
		rec.To = live.Clone()
		rec.ToCostPerHour = liveNow.CostPerHour
		rec.Reason = "no QoS-meeting configuration found within budget; degraded pool kept"
	case res.BestConfig.Key() == live.Key():
		rec.To = res.BestConfig.Clone()
		rec.ToCostPerHour = res.BestResult.CostPerHour
		rec.Reason = "surviving pool remains optimal"
	default:
		mig := c.migration.Cost(spec, live, res.BestConfig)
		rec.To = res.BestConfig.Clone()
		rec.ToCostPerHour = res.BestResult.CostPerHour
		rec.MigrationCost = mig
		horizon := c.cfg.Params.AmortizationHours
		switch {
		case !liveNow.MeetsQoS:
			rec.Applied = true
			rec.Reason = "surviving pool violates QoS; provisioning replacement capacity"
		case res.BestResult.CostPerHour*horizon+mig < liveNow.CostPerHour*horizon-1e-9:
			rec.Applied = true
			rec.Reason = fmt.Sprintf("cheaper after migration: $%.3f/hr + $%.3f once vs $%.3f/hr",
				res.BestResult.CostPerHour, mig, liveNow.CostPerHour)
		default:
			rec.Reason = fmt.Sprintf("saving does not repay migration within %.2gh; surviving pool kept", horizon)
		}
		if rec.Applied {
			next = res.BestResult
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueLocked(nowMs)
	if rec.Applied {
		c.stat.AccruedCost += rec.MigrationCost
	}
	c.searches++
	c.lastSteps = res.Steps
	c.incumbent = next
	// The decision replaces lost capacity either way: keeping the degraded
	// pool re-baselines it as the incumbent, switching provisions fresh.
	for i := range c.lost {
		c.lost[i] = 0
	}
	c.stat.Incumbent = next.Config.Clone()
	c.stat.IncumbentCostPerHour = next.CostPerHour
	c.stat.IncumbentMeetsQoS = next.MeetsQoS
	c.stat.LiveConfig = next.Config.Clone()
	c.stat.Degraded = false
	c.stat.SearchSamples += res.Samples
	c.stat.Reconfigurations = append(c.stat.Reconfigurations, rec)
	c.stat.State = StateSteady
	c.stat.PendingForMs = 0
	c.det.Reset()
	c.capacityCooldownUntil = nowMs + c.cfg.Params.EmergencyCooldownMs
	c.syncMarketLocked()
	verdict := "keep"
	if rec.Applied {
		verdict = "switch"
	}
	c.trail.Record(nowMs, "reconfigure", verdict+" ("+trigger+"): "+rec.Reason,
		obs.F("applied", rec.Applied),
		obs.F("trigger", trigger),
		obs.F("observed_scale", rec.ObservedScale),
		obs.F("from", rec.From.Key()),
		obs.F("to", rec.To.Key()),
		obs.F("from_cost_per_hour", rec.FromCostPerHour),
		obs.F("to_cost_per_hour", rec.ToCostPerHour),
		obs.F("migration_cost", rec.MigrationCost),
		obs.F("samples", rec.Samples),
	)
	return &rec, nil
}
