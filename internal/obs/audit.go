package obs

import (
	"context"
	"log/slog"
	"sync"
)

// EventKind names a class of control-plane decision, e.g. "shift_detected"
// or "reconfigure".
type EventKind string

// Event is one typed audit record. AtMs is stream time (simulated
// milliseconds since the component's epoch), never wall clock, so that
// seeded replays produce byte-identical event lists. Fields keep insertion
// order for the same reason.
type Event struct {
	Seq     int       `json:"seq"`
	AtMs    float64   `json:"at_ms"`
	Kind    EventKind `json:"kind"`
	Message string    `json:"message"`
	Fields  []Field   `json:"fields,omitempty"`
}

// Trail is a bounded, concurrency-safe audit log. When full it drops the
// oldest events but keeps sequence numbers increasing, so readers can tell
// how much history was discarded. A nil Trail ignores records, letting call
// sites stay unconditional.
type Trail struct {
	mu      sync.Mutex
	max     int
	seq     int
	dropped int
	events  []Event
	logger  *slog.Logger // mirror of every event as a log line
}

// NewTrail returns a trail retaining at most max events (64 when max <= 0).
// When logger is non-nil every recorded event is mirrored to it at
// slog.LevelInfo.
func NewTrail(max int, logger *slog.Logger) *Trail {
	if max <= 0 {
		max = 64
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Trail{max: max, logger: logger}
}

// Record appends an event and returns its sequence number.
func (t *Trail) Record(atMs float64, kind EventKind, msg string, fields ...Field) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.seq++
	ev := Event{Seq: t.seq, AtMs: atMs, Kind: kind, Message: msg, Fields: fields}
	if len(t.events) >= t.max {
		n := copy(t.events, t.events[1:])
		t.events = t.events[:n]
		t.dropped++
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
	ctx := context.Background()
	if t.logger.Enabled(ctx, slog.LevelInfo) {
		attrs := make([]slog.Attr, 0, len(fields)+2)
		attrs = append(attrs, slog.Float64("at_ms", atMs), slog.String("kind", string(kind)))
		for _, f := range fields {
			attrs = append(attrs, slog.String(f.Key, f.Value))
		}
		t.logger.LogAttrs(ctx, slog.LevelInfo, msg, attrs...)
	}
	return ev.Seq
}

// Events returns a copy of the retained events, oldest first.
func (t *Trail) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	return append([]Event(nil), t.events...)
}

// Dropped returns how many events were discarded due to the size bound.
func (t *Trail) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
