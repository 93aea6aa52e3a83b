package wire_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ribbon/api"
	"ribbon/internal/cloud"
	"ribbon/internal/gateway"
	"ribbon/internal/models"
	"ribbon/internal/server"
	"ribbon/internal/serving"
	"ribbon/internal/wire"
	"ribbon/internal/workload"
)

// backendFunc adapts a function to gateway.Backend.
type backendFunc func(ctx context.Context) (float64, error)

func (f backendFunc) Serve(ctx context.Context, _ cloud.InstanceType, _ *gateway.Batch) (float64, error) {
	return f(ctx)
}

// newGateway starts a static one-instance CANDLE gateway over backend.
func newGateway(t *testing.T, backend gateway.Backend) *gateway.Gateway {
	t.Helper()
	g, err := gateway.New(context.Background(), gateway.Options{
		Spec:       serving.MustNewPoolSpec(models.MustLookup("CANDLE"), 0.99, "c5a", "m5", "t3"),
		Backend:    backend,
		Initial:    serving.Config{1, 0, 0},
		Bounds:     []int{4, 4, 4},
		QueueDepth: 2,
		Sim:        serving.SimOptions{Queries: 400},
		TimeScale:  0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func newServer(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.Config{Workers: 1, Logf: t.Logf})
	t.Cleanup(s.Close)
	return s
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

// errCode returns the code of an error envelope, or "" when the body is
// not one.
func errCode(rr *httptest.ResponseRecorder) api.ErrorCode {
	var er api.ErrorResponse
	if json.Unmarshal(rr.Body.Bytes(), &er) != nil || er.Error == nil {
		return ""
	}
	return er.Error.Code
}

// TestEdgeContract runs one table of request bodies against every JSON
// route family of both binaries: the control-plane server's synchronous
// and run-store POSTs, and the gateway's /v1/infer. Each must reject the
// same malformed bodies with 400 invalid_request and answer compactly.
func TestEdgeContract(t *testing.T) {
	gw := newGateway(t, backendFunc(func(context.Context) (float64, error) { return 0.01, nil }))
	targets := []struct {
		name, path string
		h          http.Handler
		field      string // a known string field, to grow a body past the cap
	}{
		{"server/evaluate", "/v1/evaluate", newServer(t).Handler(), "model"},
		{"server/jobs", "/v1/jobs", newServer(t).Handler(), "model"},
		{"gateway/infer", "/v1/infer", gw.Handler(), "payload"},
	}
	for _, tg := range targets {
		big := `{"` + tg.field + `":"` + strings.Repeat("a", 1<<20) + `"}`
		rows := []struct{ name, body string }{
			{"unknown field", `{"no_such_field":1}`},
			{"trailing data", `{} trailing`},
			{"two objects", `{}{}`},
			{"stray close", `{}]`},
			{"malformed", `{"batch":`},
			{"empty", ``},
			{"over 1 MiB", big},
		}
		for _, row := range rows {
			t.Run(tg.name+"/"+row.name, func(t *testing.T) {
				rr := serve(tg.h, http.MethodPost, tg.path, row.body)
				if rr.Code != http.StatusBadRequest || errCode(rr) != api.ErrInvalidRequest {
					t.Fatalf("%s = %d %.200s, want 400 invalid_request", tg.path, rr.Code, rr.Body)
				}
				if strings.Contains(rr.Body.String(), "\n ") {
					t.Fatalf("indented body: %s", rr.Body)
				}
			})
		}
	}

	// Whitespace after the value is not trailing data.
	if rr := serve(gw.Handler(), http.MethodPost, "/v1/infer", "{\"batch\":1}\n \t"); rr.Code != http.StatusOK {
		t.Fatalf("trailing whitespace = %d %s", rr.Code, rr.Body)
	}
}

// TestEdgeOverloadedRetryAfter: a 503 from either binary carries
// Retry-After: 1.
func TestEdgeOverloadedRetryAfter(t *testing.T) {
	// One worker and a one-deep queue: long searches fill both, then the
	// server refuses the next run as overloaded. Close cancels them.
	s := server.New(server.Config{Workers: 1, QueueDepth: 1, Logf: t.Logf})
	t.Cleanup(s.Close)
	var job *httptest.ResponseRecorder
	for i := 0; i < 3; i++ {
		job = serve(s.Handler(), http.MethodPost, "/v1/jobs",
			`{"model":"MT-WND","families":["g4dn","t3"],"queries":60000,"budget":100000}`)
		if job.Code != http.StatusAccepted {
			break
		}
	}

	block := make(chan struct{})
	defer close(block)
	g := newGateway(t, backendFunc(func(ctx context.Context) (float64, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return 0.01, nil
	}))
	// One instance with a two-deep lane: wedge it until admission rejects.
	for i := 0; i < 32 && g.IngestAsync(float64(i), 1, workload.ClassStandard) == gateway.OutcomeQueued; i++ {
	}
	infer := serve(g.Handler(), http.MethodPost, "/v1/infer", `{"batch":1}`)

	for name, rr := range map[string]*httptest.ResponseRecorder{"server": job, "gateway": infer} {
		if rr.Code != http.StatusServiceUnavailable || errCode(rr) != api.ErrOverloaded {
			t.Errorf("%s: %d %s, want 503 overloaded", name, rr.Code, rr.Body)
		}
		if got := rr.Header().Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want \"1\"", name, got)
		}
	}
}

// TestEdgeUnencodable: a response that cannot be encoded answers 500
// internal rather than an empty 200, through the shared writer and through
// the gateway when a backend reports a non-finite service time.
func TestEdgeUnencodable(t *testing.T) {
	direct := httptest.NewRecorder()
	wire.WriteJSON(direct, http.StatusOK, math.NaN())

	g := newGateway(t, backendFunc(func(context.Context) (float64, error) { return math.NaN(), nil }))
	infer := serve(g.Handler(), http.MethodPost, "/v1/infer", `{"batch":1}`)

	for name, rr := range map[string]*httptest.ResponseRecorder{"WriteJSON": direct, "gateway": infer} {
		if rr.Code != http.StatusInternalServerError || errCode(rr) != api.ErrInternal {
			t.Errorf("%s: %d %s, want 500 internal", name, rr.Code, rr.Body)
		}
	}
}
