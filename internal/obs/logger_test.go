package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

// TestLoggerJSON checks the surviving constructor: a JSON logger at warn
// drops info lines and writes one JSON object per line carrying msg and the
// attributes.
func TestLoggerJSON(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelWarn, FormatJSON)
	l.Info("hidden")
	l.With("component", "gateway").Warn("queue full", "depth", 128)
	l.Error("shed", "tier", "batch")
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines (info dropped), got %d:\n%s", len(lines), sb.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, lines[0])
	}
	for k, want := range map[string]any{
		"level": "WARN", "msg": "queue full", "component": "gateway", "depth": 128.0,
	} {
		if rec[k] != want {
			t.Errorf("rec[%q] = %v, want %v", k, rec[k], want)
		}
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil || rec["msg"] != "shed" || rec["tier"] != "batch" {
		t.Errorf("second line %q: rec=%v err=%v", lines[1], rec, err)
	}
}

// TestLoggerLevelsAndNil checks level filtering on a text logger and that a
// nil logger handed to NewTrail is tolerated rather than dereferenced.
func TestLoggerLevelsAndNil(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelWarn, FormatText)
	l.Debug("hidden-debug")
	l.Info("hidden-info")
	l.Warn("shown-warn")
	l.Error("shown-error")
	out := sb.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "level=WARN msg=shown-warn") ||
		!strings.Contains(out, "level=ERROR msg=shown-error") {
		t.Errorf("level filtering broken: %q", out)
	}
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelWarn) {
		t.Error("Enabled disagrees with the configured level")
	}
	silent := NewTrail(3, nil)
	silent.Record(1, "tick", "no logger")
	if evs := silent.Events(); len(evs) != 1 || evs[0].Message != "no logger" {
		t.Errorf("trail with a nil logger recorded %+v", evs)
	}
}

func TestLoggerPrintfShim(t *testing.T) {
	var lines []string
	l := NewPrintfLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, slog.LevelInfo)
	l.Debug("hidden")
	l.Info("served requests", "n", 7)
	if len(lines) != 1 {
		t.Fatalf("want 1 line, got %d: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], `msg="served requests" n=7`) || strings.HasSuffix(lines[0], "\n") {
		t.Errorf("line = %q", lines[0])
	}
}

func TestParseLevelFormat(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		if lv, err := ParseLevel(in); err != nil || lv != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, lv, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
	if f, err := ParseFormat("json"); err != nil || f != FormatJSON {
		t.Errorf("ParseFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) should fail")
	}
	if _, err := NewFlagLogger(io.Discard, "info", "xml"); err == nil {
		t.Error("NewFlagLogger should reject a bad format")
	}
	if _, err := NewFlagLogger(io.Discard, "loud", "json"); err == nil {
		t.Error("NewFlagLogger should reject a bad level")
	}
}

func TestTrail(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb, slog.LevelInfo, FormatText)
	tr := NewTrail(3, l)
	for i := 0; i < 5; i++ {
		tr.Record(float64(i*100), "tick", "tick happened", F("i", i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 retained events, got %d", len(evs))
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("want seqs 3..5, got %d..%d", evs[0].Seq, evs[2].Seq)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
	if got := strings.Count(sb.String(), `msg="tick happened" at_ms=`); got != 5 {
		t.Errorf("mirrored lines = %d, want 5:\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "at_ms=400 kind=tick i=4") {
		t.Errorf("mirror attributes missing:\n%s", sb.String())
	}
	var nilTrail *Trail
	nilTrail.Record(0, "x", "ignored")
	if nilTrail.Events() != nil || nilTrail.Dropped() != 0 {
		t.Error("nil trail should be inert")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2, 2)
	if _, sampled := r.Next(); sampled {
		t.Error("seq 1 of every-2 should not sample")
	}
	if seq, sampled := r.Next(); !sampled || seq != 2 {
		t.Errorf("seq 2 should sample, got seq=%d sampled=%v", seq, sampled)
	}
	for i := 0; i < 3; i++ {
		i := i
		r.Record(func(tr *Trace) {
			tr.Seq = uint64(i + 1)
			tr.Outcome = "served"
			tr.Spans = append(tr.Spans, Span{Name: "admit", StartMs: 1, EndMs: 2})
		})
	}
	got := r.Traces()
	if len(got) != 2 {
		t.Fatalf("want 2 traces, got %d", len(got))
	}
	if got[0].Seq != 3 || got[1].Seq != 2 {
		t.Errorf("want newest-first seqs 3,2, got %d,%d", got[0].Seq, got[1].Seq)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Name != "admit" {
		t.Errorf("spans not copied: %+v", got[0].Spans)
	}
	if id := TraceID(255, ""); id != "tff" {
		t.Errorf("TraceID = %q", id)
	}
	if id := TraceID(255, "client-id"); id != "client-id" {
		t.Errorf("adopted TraceID = %q", id)
	}
	var nilRing *TraceRing
	if _, sampled := nilRing.Next(); sampled {
		t.Error("nil ring should never sample")
	}
	nilRing.Record(func(*Trace) {})
	if nilRing.Traces() != nil {
		t.Error("nil ring should be inert")
	}
}

func TestServePprof(t *testing.T) {
	addr, stop, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("goroutine profile = %d, want 200", resp.StatusCode)
	}
}
