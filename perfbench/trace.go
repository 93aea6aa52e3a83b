package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one search, decision or
// request share trace; parent is the id of the span that caused this one
// (0 for a root). Times are nanoseconds since the tracer started.
type span struct {
	name       string
	id, parent uint64
	trace      uint64
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(name string, parent, trace uint64, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.addWithID(name, id, parent, trace, start, end)
	return id
}

// addWithID records a finished span whose id was reserved when it began, so
// its children could name it as their parent.
func (t *tracer) addWithID(name string, id, parent, trace uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, trace: trace, start: start, end: end})
	t.mu.Unlock()
}

// snapshot returns the recorded spans. Call it after every goroutine that
// records has finished.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName collects the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the lengths of the spans in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end-s.start) / 1e6
	}
	return out
}

// totalMs sums the span lengths in milliseconds.
func totalMs(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		ns += s.end - s.start
	}
	return float64(ns) / 1e6
}

// selfMs returns the summed self time of the parent spans: each parent's
// length minus the part of it that the union of its children covers.
func selfMs(parents, children []span) float64 {
	kids := make(map[uint64][]interval)
	for _, c := range children {
		kids[c.parent] = append(kids[c.parent], interval{c.start, c.end})
	}
	var ns int64
	for _, p := range parents {
		ns += p.end - p.start - unionLen(kids[p.id], p.start, p.end)
	}
	return float64(ns) / 1e6
}

// writeSpans writes the spans as gzipped CSV (name,id,parent,trace,start_ns,
// end_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // BestSpeed is a valid level
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,id,parent,trace,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.trace, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
