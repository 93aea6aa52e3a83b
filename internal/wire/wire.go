// Package wire is the HTTP JSON edge the control-plane server and the
// gateway share: the one strict request decoder, response writer and
// error writer (http.go), and the mapping of internal controller,
// audit-trail and SLO snapshots onto the api wire schema, so the two
// surfaces cannot drift apart; api itself stays free of internal imports.
package wire

import (
	"ribbon/api"
	"ribbon/internal/controller"
	"ribbon/internal/obs"
	"ribbon/internal/slo"
)

// ControllerStatus maps a controller snapshot onto the wire schema.
func ControllerStatus(s controller.Status) api.ControllerStatus {
	return api.ControllerStatus{
		State:                string(s.State),
		NowMs:                s.NowMs,
		Arrivals:             s.Arrivals,
		Ticks:                s.Ticks,
		EstimatedScale:       s.EstimatedScale,
		AppliedScale:         s.AppliedScale,
		PendingForMs:         s.PendingForMs,
		Incumbent:            s.Incumbent,
		IncumbentCostPerHour: s.IncumbentCostPerHour,
		IncumbentMeetsQoS:    s.IncumbentMeetsQoS,
		SearchSamples:        s.SearchSamples,
		LiveConfig:           s.LiveConfig,
		Degraded:             s.Degraded,
		CapacityEvents:       s.CapacityEvents,
		AccruedCost:          s.AccruedCost,
		Reconfigurations:     Reconfigurations(s.Reconfigurations),
		Events:               AuditEvents(s.Events),
	}
}

// Reconfigurations maps a decision history onto the wire schema. The
// result is never nil, so an empty history encodes as [].
func Reconfigurations(recs []controller.Reconfiguration) []api.ControllerReconfiguration {
	out := make([]api.ControllerReconfiguration, 0, len(recs))
	for _, r := range recs {
		out = append(out, api.ControllerReconfiguration{
			AtMs:              r.AtMs,
			ObservedScale:     r.ObservedScale,
			OldScale:          r.OldScale,
			NewScale:          r.NewScale,
			From:              r.From,
			To:                r.To,
			FromCostPerHour:   r.FromCostPerHour,
			ToCostPerHour:     r.ToCostPerHour,
			MigrationCost:     r.MigrationCost,
			Trigger:           r.Trigger,
			IncumbentMeetsQoS: r.IncumbentMeetsQoS,
			Samples:           r.Samples,
			Applied:           r.Applied,
			Reason:            r.Reason,
		})
	}
	return out
}

// AuditEvents maps obs audit events onto the wire schema; nil when empty.
func AuditEvents(evs []obs.Event) []api.AuditEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]api.AuditEvent, 0, len(evs))
	for _, ev := range evs {
		dto := api.AuditEvent{
			Seq:     ev.Seq,
			AtMs:    ev.AtMs,
			Kind:    string(ev.Kind),
			Message: ev.Message,
		}
		for _, f := range ev.Fields {
			dto.Fields = append(dto.Fields, api.AuditField{Key: f.Key, Value: f.Value})
		}
		out = append(out, dto)
	}
	return out
}

// SLOStatus maps an SLO engine snapshot onto the wire schema.
func SLOStatus(s slo.Status) api.SLOStatus {
	out := api.SLOStatus{
		AtMs:       s.AtMs,
		Firing:     s.Firing,
		Objectives: make([]api.SLOObjective, 0, len(s.Objectives)),
	}
	for _, o := range s.Objectives {
		dto := api.SLOObjective{
			Name:            o.Name,
			Tier:            o.Tier,
			Kind:            o.Kind,
			Target:          o.Target,
			Good:            o.Good,
			Total:           o.Total,
			ErrorRate:       o.ErrorRate,
			BudgetRemaining: o.BudgetRemaining,
		}
		for _, w := range o.Windows {
			dto.Windows = append(dto.Windows, api.SLOWindow{
				WindowMs:  w.WindowMs,
				ErrorRate: w.ErrorRate,
				BurnRate:  w.BurnRate,
			})
		}
		for _, rl := range o.Rules {
			dto.Rules = append(dto.Rules, api.SLORule{
				Severity:  rl.Severity,
				Threshold: rl.Threshold,
				LongMs:    rl.LongMs,
				ShortMs:   rl.ShortMs,
				BurnLong:  rl.BurnLong,
				BurnShort: rl.BurnShort,
				Firing:    rl.Firing,
				SinceMs:   rl.SinceMs,
			})
		}
		out.Objectives = append(out.Objectives, dto)
	}
	return out
}
