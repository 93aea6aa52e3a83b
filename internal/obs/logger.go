package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"time"
)

// ParseLevel parses "debug", "info", "warn" (or "warning"), or "error";
// the empty string means info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// Format selects the slog handler NewLogger builds.
type Format int

const (
	FormatText Format = iota // slog.TextHandler: time=... level=INFO msg="..." key=value
	FormatJSON               // slog.JSONHandler: {"time":"...","level":"INFO","msg":"...","key":"value"}
)

// ParseFormat parses "text" or "json"; the empty string means text.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("unknown log format %q (want text|json)", s)
}

// Field is one key/value pair attached to an audit event. Values are
// pre-rendered to strings so events serialize to a stable wire shape.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// F builds a Field, rendering the value with strconv fast paths.
func F(key string, value any) Field {
	return Field{Key: key, Value: renderValue(value)}
}

func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

// NewLogger returns a structured logger writing to w at the given level,
// encoding lines with slog's text or JSON handler.
func NewLogger(w io.Writer, level slog.Level, format Format) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if format == FormatJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NewFlagLogger builds a process logger on w from -log-level and
// -log-format flag values, rejecting values ParseLevel or ParseFormat reject.
func NewFlagLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	fm, err := ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return NewLogger(w, lv, fm), nil
}

// NewPrintfLogger adapts a printf-style sink (such as testing.T.Logf or the
// deprecated server Config.Logf) into a text logger. Each line is handed to
// f without its trailing newline.
func NewPrintfLogger(f func(format string, args ...any), level slog.Level) *slog.Logger {
	return NewLogger(printfWriter(f), level, FormatText)
}

// printfWriter receives exactly one Write per record from slog's handlers.
type printfWriter func(format string, args ...any)

func (f printfWriter) Write(p []byte) (int, error) {
	f("%s", strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
