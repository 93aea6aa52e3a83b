// Package chaos models a hostile cloud: seeded, replay-deterministic
// capacity-event schedules — spot revocations with warning windows, hard
// instance failures, straggler slowdowns, and spot-market price moves —
// expressed in stream time so the same storm replays byte-identically
// against the simulator, the controller, and the live gateway.
//
// The determinism contract: a Schedule is a pure function of the options
// it was generated from (see GenerateStorm); nothing in this package reads
// the wall clock or global randomness. Consumers must apply events in the
// package's canonical order (Sort) and must never let their own decisions
// feed back into the schedule — the storm is the weather, not the pilot.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Kind names a capacity-event type.
type Kind string

const (
	// KindRevocation is a spot-capacity revocation: notice lands at AtMs,
	// the capacity actually leaves WarningMs later (the classic two-minute
	// warning). In-flight work may drain inside the window; the instance
	// must take no new work once the notice lands.
	KindRevocation Kind = "revocation"
	// KindFailure is a hard instance failure at AtMs: no warning, in-flight
	// work is lost.
	KindFailure Kind = "failure"
	// KindSlowdown is a straggler window: the affected instances serve at
	// Factor times their normal service time for DurationMs starting at
	// AtMs.
	KindSlowdown Kind = "slowdown"
	// KindPrice sets the family's spot-market factor to Factor at AtMs
	// (1.0 is the catalog baseline spot price).
	KindPrice Kind = "price"
	// KindRestore brings Count replacement instances of Family online at
	// AtMs; they still pay the pool's warm-up charge before serving.
	KindRestore Kind = "restore"
)

// DefaultWarningMs is the spot revocation notice window: the standard
// two-minute warning, in stream milliseconds.
const DefaultWarningMs = 120000

// CapacityEvent is one stream-time capacity event.
type CapacityEvent struct {
	// AtMs is the stream time the event lands (for a revocation, the time
	// the *notice* lands).
	AtMs float64 `json:"at_ms"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Family is the affected instance family; empty only for events that
	// are family-agnostic (none currently).
	Family string `json:"family,omitempty"`
	// Count is the number of instances affected (revocation, failure,
	// slowdown, restore).
	Count int `json:"count,omitempty"`
	// WarningMs is the revocation notice window; capacity leaves at
	// AtMs+WarningMs.
	WarningMs float64 `json:"warning_ms,omitempty"`
	// DurationMs is the slowdown window length.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// Factor is the price market factor (KindPrice) or the service-time
	// multiplier (KindSlowdown).
	Factor float64 `json:"factor,omitempty"`
}

// EffectiveMs is the stream time the event's capacity effect takes hold:
// AtMs+WarningMs for revocations, AtMs for everything else.
func (e CapacityEvent) EffectiveMs() float64 {
	if e.Kind == KindRevocation {
		return e.AtMs + e.WarningMs
	}
	return e.AtMs
}

// Validate checks one event's internal consistency.
func (e CapacityEvent) Validate() error {
	if e.AtMs < 0 {
		return fmt.Errorf("chaos: event at %.0fms before stream start", e.AtMs)
	}
	switch e.Kind {
	case KindRevocation, KindFailure, KindRestore:
		if e.Count <= 0 {
			return fmt.Errorf("chaos: %s event needs count > 0", e.Kind)
		}
		if e.Family == "" {
			return fmt.Errorf("chaos: %s event needs a family", e.Kind)
		}
		if e.Kind == KindRevocation && e.WarningMs < 0 {
			return fmt.Errorf("chaos: negative warning window")
		}
	case KindSlowdown:
		if e.Count <= 0 || e.Family == "" {
			return fmt.Errorf("chaos: slowdown event needs family and count")
		}
		if e.Factor < 1 {
			return fmt.Errorf("chaos: slowdown factor %.3f < 1", e.Factor)
		}
		if e.DurationMs <= 0 {
			return fmt.Errorf("chaos: slowdown needs duration > 0")
		}
	case KindPrice:
		if e.Family == "" {
			return fmt.Errorf("chaos: price event needs a family")
		}
		if e.Factor <= 0 {
			return fmt.Errorf("chaos: price factor %.3f must be positive", e.Factor)
		}
	default:
		return fmt.Errorf("chaos: unknown event kind %q", e.Kind)
	}
	return nil
}

// Schedule is a full storm: the seed it was generated from (recorded for
// provenance and replay audits) and its events in canonical order.
type Schedule struct {
	// Seed is the master seed the schedule was generated from; 0 for
	// hand-written schedules.
	Seed uint64 `json:"seed"`
	// HorizonMs is the stream-time extent the schedule covers.
	HorizonMs float64 `json:"horizon_ms"`
	// Events are the capacity events, sorted canonically (see Sort).
	Events []CapacityEvent `json:"events"`
}

// Sort puts events in the canonical replay order: by AtMs, then kind, then
// family, then count — a total order, so every replay walks the same
// sequence regardless of how the schedule was assembled.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.AtMs != b.AtMs {
			return a.AtMs < b.AtMs
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		return a.Count < b.Count
	})
}

// Validate checks every event and the schedule's ordering invariant.
func (s *Schedule) Validate() error {
	if s.HorizonMs < 0 {
		return fmt.Errorf("chaos: negative horizon")
	}
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if i > 0 && e.AtMs < s.Events[i-1].AtMs {
			return fmt.Errorf("chaos: events out of order at %d (%.0f < %.0f)", i, e.AtMs, s.Events[i-1].AtMs)
		}
	}
	return nil
}

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return nil
	}
	out := &Schedule{Seed: s.Seed, HorizonMs: s.HorizonMs}
	if s.Events != nil {
		out.Events = make([]CapacityEvent, len(s.Events))
		copy(out.Events, s.Events)
	}
	return out
}

// Empty reports whether the schedule carries no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// WriteJSON writes the schedule with the repo's standard one-space indent,
// the byte format the replay-stability tests compare.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ReadJSON parses a schedule written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: decode schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
