// Package obs is ribbon's dependency-free telemetry layer.
//
// It provides three pillars used across the server, the gateway, and the
// control plane:
//
//   - a metrics registry (Counter, Gauge, Histogram, and their labeled Vec
//     variants) whose fast-path operations are single atomic instructions
//     and whose contents render in Prometheus text exposition format;
//   - log/slog loggers (NewLogger) emitting key=value or JSON lines, chosen
//     by the -log-level/-log-format flags;
//   - audit Trails and request Traces: bounded in-memory rings of typed
//     control-plane events and sampled per-request span timelines.
//
// Everything in this package is safe for concurrent use. Metric children
// (the objects returned by With) are meant to be resolved once at
// construction time and retained; observing through a retained child is
// lock-free and allocation-free.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// A Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with help text and zero or more labeled
// children. Children are kept in creation order so exposition output is
// deterministic.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string

	mu       sync.Mutex
	children []child
	byKey    map[string]child
}

type child interface {
	labelString() string // `a="x",b="y"` without braces, "" when unlabeled
}

func (r *Registry) family(name, help string, kind familyKind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, byKey: make(map[string]child)}
	r.families[name] = f
	return f
}

func (f *family) getOrAdd(values []string, mk func(ls string) child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	ls := labelString(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[ls]; ok {
		return c
	}
	c := mk(ls)
	f.byKey[ls] = c
	f.children = append(f.children, c)
	return c
}

// snapshot returns families sorted by name and a stable copy of each
// family's children, for rendering outside the registry lock.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ","
		}
		s += n + `="` + escapeLabel(values[i]) + `"`
	}
	return s
}

func escapeLabel(v string) string {
	clean := true
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return v
	}
	out := make([]byte, 0, len(v)+8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
