package workload

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ribbon/internal/models"
)

func emitStream(t *testing.T, seed uint64) *Stream {
	t.Helper()
	m, err := models.Lookup("MT-WND")
	if err != nil {
		t.Fatal(err)
	}
	s := GenerateSchedule(m, seed, HeavyTailLogNormalBatch,
		[]Phase{{Queries: 300, RateScale: 1}, {Queries: 200, RateScale: 2}})
	s.AssignClasses(seed, ClassMix{Critical: 1, Standard: 2, Sheddable: 1})
	return s
}

// collect drains an emit run into a slice.
func collect(t *testing.T, s *Stream, scale float64) []Query {
	t.Helper()
	ch := make(chan Query, len(s.Queries))
	if err := s.EmitScaled(context.Background(), ch, scale); err != nil {
		t.Fatalf("emit: %v", err)
	}
	close(ch)
	var out []Query
	for q := range ch {
		out = append(out, q)
	}
	return out
}

// TestEmitDeterminism: the emitted sequence is exactly the seeded stream —
// same queries, same order, same classes — at any pacing, and two streams
// from the same seed emit identical sequences. Timing is the only live
// aspect of Emit; the gateway's byte-stable decision replay depends on it.
func TestEmitDeterminism(t *testing.T) {
	s := emitStream(t, 7)

	unpaced := collect(t, s, 0)
	if !reflect.DeepEqual(unpaced, s.Queries) {
		t.Fatal("unpaced emit did not reproduce the stream verbatim")
	}

	// A heavily compressed paced run carries the same sequence.
	paced := collect(t, s, 0.001)
	if !reflect.DeepEqual(paced, unpaced) {
		t.Fatal("paced emit diverged from unpaced emit")
	}

	// Regenerating from the seed changes nothing.
	again := collect(t, emitStream(t, 7), 0)
	if !reflect.DeepEqual(again, unpaced) {
		t.Fatal("same seed emitted a different sequence")
	}
	if other := collect(t, emitStream(t, 8), 0); reflect.DeepEqual(other, unpaced) {
		t.Fatal("different seeds emitted identical sequences")
	}
}

// TestEmitPacing: with a positive scale no query is sent before its scaled
// due time — the open-loop guarantee (sends may be late under scheduler
// noise, never early).
func TestEmitPacing(t *testing.T) {
	s := emitStream(t, 7)
	const scale = 0.01

	type stamped struct {
		q  Query
		at time.Duration
	}
	ch := make(chan Query, len(s.Queries))
	done := make(chan []stamped)
	start := time.Now()
	go func() {
		var got []stamped
		for q := range ch {
			got = append(got, stamped{q, time.Since(start)})
		}
		done <- got
	}()
	if err := s.EmitScaled(context.Background(), ch, scale); err != nil {
		t.Fatalf("emit: %v", err)
	}
	close(ch)
	got := <-done

	if len(got) != len(s.Queries) {
		t.Fatalf("received %d queries, want %d", len(got), len(s.Queries))
	}
	// Receipt observes the send with delivery slack; a query observed a full
	// millisecond before its due time was sent early.
	const slack = time.Millisecond
	for i, st := range got {
		due := time.Duration(st.q.ArrivalMs * scale * float64(time.Millisecond))
		if st.at+slack < due {
			t.Fatalf("query %d sent at %v, before its due time %v", i, st.at, due)
		}
	}
}

// TestEmitCancel: cancellation mid-stream surfaces the context error without
// sending the rest, and a negative scale is rejected outright.
func TestEmitCancel(t *testing.T) {
	s := emitStream(t, 7)

	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Query) // unbuffered: the emitter blocks on the first send
	errc := make(chan error, 1)
	go func() { errc <- s.EmitScaled(ctx, ch, 0) }()
	<-ch // accept one query, then cancel while the emitter blocks on the next
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled emit returned %v", err)
	}

	if err := s.EmitScaled(context.Background(), ch, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

// TestEmitCancelDuringPacing: cancellation lands while Emit sleeps toward a
// far-future arrival — the pacing path, not the channel-send path TestEmitCancel
// covers — and the sleeper wakes promptly instead of serving out the timer.
func TestEmitCancelDuringPacing(t *testing.T) {
	s := &Stream{Model: "X", Queries: []Query{
		{ID: 0, ArrivalMs: 0, Batch: 1},
		{ID: 1, ArrivalMs: 60_000, Batch: 1},
	}}
	ch := make(chan Query, len(s.Queries))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.EmitScaled(ctx, ch, 1) }()
	<-ch // query 0 is due immediately; the emitter now sleeps toward t=60s
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled emit returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Emit kept sleeping after cancellation")
	}
	if len(ch) != 0 {
		t.Fatalf("%d queries emitted after cancellation", len(ch))
	}
}

// TestEmitScaledCancelBeforeStart: a context cancelled before the call makes
// EmitScaled return the context error from its first pacing sleep without
// sending anything.
func TestEmitScaledCancelBeforeStart(t *testing.T) {
	s := &Stream{Model: "X", Queries: []Query{{ID: 0, ArrivalMs: 10_000, Batch: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := make(chan Query, 1)
	if err := s.EmitScaled(ctx, ch, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled emit returned %v", err)
	}
	if len(ch) != 0 {
		t.Fatalf("%d queries emitted on a pre-cancelled context", len(ch))
	}
}
