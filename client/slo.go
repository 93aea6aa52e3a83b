package client

import (
	"context"
	"net/http"

	"ribbon/api"
)

// SLO fetches the control-plane server's own SLO status — the availability
// of its HTTP API — from GET /v1/slo.
func (c *Client) SLO(ctx context.Context) (api.SLOStatus, error) {
	var out api.SLOStatus
	err := c.do(ctx, http.MethodGet, "/v1/slo", nil, &out)
	return out, err
}

// GatewaySLO fetches a gateway's SLO status — per-tier QoS attainment,
// latency, and shed-rate objectives with burn rates — from
// GET /v1/gateway/slo. Point the Client at the gateway's address.
func (c *Client) GatewaySLO(ctx context.Context) (api.SLOStatus, error) {
	var out api.SLOStatus
	err := c.do(ctx, http.MethodGet, "/v1/gateway/slo", nil, &out)
	return out, err
}

// Alert is one firing burn-rate rule, flattened out of an SLOStatus for
// callers that only care about what is paging right now.
type Alert struct {
	// Objective names the indicator ("qos_attainment/critical",
	// "availability/http"); Tier and Kind are its components when set.
	Objective string
	Tier      string
	Kind      string
	// Severity is the rule's class ("page", "ticket"); Threshold its burn
	// limit; BurnLong/BurnShort the window burn rates at the last sample.
	Severity  string
	Threshold float64
	BurnLong  float64
	BurnShort float64
	// SinceMs is when the rule started firing, on the serving side's clock.
	SinceMs float64
}

// Alerts fetches the current SLO status and returns every firing rule. It
// asks the gateway endpoint first and falls back to the control-plane
// endpoint when the target does not serve one, so the same call works
// against either address. Each alert appearing or clearing between
// consecutive Alerts calls on this Client emits one structured log event
// through the WithLogger logger — firing transitions at warn, resolutions
// at info.
func (c *Client) Alerts(ctx context.Context) ([]Alert, error) {
	st, err := c.GatewaySLO(ctx)
	if IsCode(err, api.ErrNotFound) {
		st, err = c.SLO(ctx)
	}
	if err != nil {
		return nil, err
	}
	var firing []Alert
	for _, o := range st.Objectives {
		for _, r := range o.Rules {
			if !r.Firing {
				continue
			}
			firing = append(firing, Alert{
				Objective: o.Name,
				Tier:      o.Tier,
				Kind:      o.Kind,
				Severity:  r.Severity,
				Threshold: r.Threshold,
				BurnLong:  r.BurnLong,
				BurnShort: r.BurnShort,
				SinceMs:   r.SinceMs,
			})
		}
	}
	c.logAlertTransitions(firing)
	return firing, nil
}

// logAlertTransitions diffs the firing set against the previous Alerts call
// and logs exactly one event per transition.
func (c *Client) logAlertTransitions(firing []Alert) {
	now := make(map[string]Alert, len(firing))
	for _, a := range firing {
		now[a.Objective+"|"+a.Severity] = a
	}
	c.alertMu.Lock()
	prev := c.alerts
	c.alerts = now
	c.alertMu.Unlock()
	for key, a := range now {
		if _, was := prev[key]; !was {
			c.logger.Warn("slo alert firing",
				"objective", a.Objective, "severity", a.Severity,
				"burn_long", a.BurnLong, "burn_short", a.BurnShort,
				"threshold", a.Threshold, "since_ms", a.SinceMs)
		}
	}
	for key, a := range prev {
		if _, still := now[key]; !still {
			c.logger.Info("slo alert resolved",
				"objective", a.Objective, "severity", a.Severity)
		}
	}
}
