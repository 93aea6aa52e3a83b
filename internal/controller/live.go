package controller

import (
	"context"
	"errors"
)

// RunLive drives the control loop from a live arrival feed instead of a
// replayed stream: the caller (in practice the ribbon-gateway data plane)
// sends the stream-time timestamp of every measured arrival on the channel,
// and the controller interleaves estimator updates with detector ticks
// exactly as Run does — the estimator genuinely cannot tell a live feed from
// a replay, which is what makes live decision traces byte-stable under a
// seeded flood.
//
// Every reconfiguration decision (applied or not) is passed to onDecision
// before the next arrival is consumed, so a serving data plane can apply the
// new pool synchronously with the decision history; a nil onDecision is
// allowed. onDecision runs on the RunLive goroutine — arrivals buffer in the
// channel while it (and the re-search before it) runs, which only delays
// ticks in wall time, never in stream time.
//
// Timestamps must be non-decreasing; out-of-order stragglers (an HTTP data
// plane admits requests from many connections) are clamped to the maximum
// seen rather than rejected, so a slightly racy feed degrades gracefully.
// RunLive returns when the channel closes (final status, nil error) or the
// context is cancelled (partial status, context error). Like Run, it may be
// called once per Controller, and Snapshot remains safe to call concurrently.
func (c *Controller) RunLive(ctx context.Context, arrivals <-chan float64, onDecision func(Reconfiguration)) (Status, error) {
	if err := c.claimRun(); err != nil {
		return c.Snapshot(), err
	}
	if arrivals == nil {
		return c.Snapshot(), errors.New("controller: nil arrival feed")
	}
	return c.loop(ctx, func() (float64, bool, error) {
		select {
		case <-ctx.Done():
			return 0, false, ctx.Err()
		case t, ok := <-arrivals:
			return t, ok, nil
		}
	}, onDecision)
}

// claimRun marks the controller as run; Run and RunLive share one claim.
func (c *Controller) claimRun() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ran {
		return errors.New("controller: Run already called")
	}
	c.ran = true
	return nil
}

// loop is the control loop behind Run and RunLive. next yields arrival
// timestamps until it reports false (end of feed) or an error; every tick
// boundary at or before an arrival is evaluated before that arrival is
// observed, and a closing tick at the last arrival registers a shift inside
// the final partial window. Each decision goes to onDecision when non-nil.
func (c *Controller) loop(ctx context.Context, next func() (float64, bool, error), onDecision func(Reconfiguration)) (Status, error) {
	if err := c.initialize(ctx); err != nil {
		return c.Snapshot(), err
	}
	tickAt := func(nowMs float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := c.tick(ctx, nowMs)
		if err == nil && rec != nil && onDecision != nil {
			onDecision(*rec)
		}
		return err
	}

	tick := c.cfg.Params.TickMs
	nextTick := tick
	last := 0.0
	seen := false
	for {
		t, ok, err := next()
		if err != nil {
			return c.Snapshot(), err
		}
		if !ok {
			break
		}
		if t < last {
			t = last // clamp stragglers; the estimator needs monotone time
		}
		for nextTick <= t {
			if err := tickAt(nextTick); err != nil {
				return c.Snapshot(), err
			}
			nextTick += tick
		}
		c.mu.Lock()
		c.est.Observe(t)
		c.stat.Arrivals++
		c.stat.NowMs = t
		c.mu.Unlock()
		last = t
		seen = true
	}
	if seen {
		if err := tickAt(last); err != nil {
			return c.Snapshot(), err
		}
	}
	c.mu.Lock()
	c.stat.State = StateDone
	c.stat.PendingForMs = 0
	out := c.snapshotLocked()
	c.mu.Unlock()
	return out, nil
}
