package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ribbon/api"
	"ribbon/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 2, Logf: t.Logf})
	t.Cleanup(s.Close)
	return s
}

func doReq(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, r)
	return rr
}

func decodeErr(t *testing.T, rr *httptest.ResponseRecorder) *api.Error {
	t.Helper()
	var er api.ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Error == nil {
		t.Fatalf("not an error envelope: %s", rr.Body.String())
	}
	return er.Error
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	rr := doReq(t, s, http.MethodGet, "/healthz", "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rr.Code, rr.Body.String())
	}
}

func TestModelsAndInstances(t *testing.T) {
	s := newTestServer(t)

	rr := doReq(t, s, http.MethodGet, "/v1/models", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("models status %d", rr.Code)
	}
	var ms []api.ModelInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("models = %d, want 5", len(ms))
	}

	rr = doReq(t, s, http.MethodGet, "/v1/instances", "")
	var is []api.InstanceInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &is); err != nil {
		t.Fatal(err)
	}
	if len(is) != 8 {
		t.Fatalf("instances = %d, want 8", len(is))
	}
	for _, i := range is {
		if i.Family == "" || i.PricePerHour <= 0 {
			t.Fatalf("incomplete instance info: %+v", i)
		}
	}
}

func TestEvaluateHappyPath(t *testing.T) {
	s := newTestServer(t)
	body := `{"model":"MT-WND","families":["g4dn","t3"],"config":[5,0],"queries":1500}`
	rr := doReq(t, s, http.MethodPost, "/v1/evaluate", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp api.EvaluateResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.MeetsQoS {
		t.Fatalf("5 g4dn should meet QoS: %+v", resp)
	}
	if resp.CostPerHour != 5*0.526 {
		t.Fatalf("cost = %v", resp.CostPerHour)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		body string
		code api.ErrorCode
	}{
		{`{"model":"nope","config":[1]}`, api.ErrUnknownModel},
		{`{"model":"MT-WND","families":["g4dn","t3"],"config":[1]}`, api.ErrInvalidConfig},
		{`{"model":"MT-WND","families":["g4dn","t3"],"config":[-1,2]}`, api.ErrInvalidConfig},
		{`{"model":"MT-WND","unknown_field":1,"config":[1]}`, api.ErrInvalidRequest},
		{`{"model":"MT-WND","families":["g4dn","t3"],"config":[1,1]} trailing`, api.ErrInvalidRequest},
		{`{"model":"","config":[1]}`, api.ErrInvalidRequest},
		{`{"model":"MT-WND","qos_percentile":1.5,"config":[1,1,1]}`, api.ErrInvalidRequest},
		{`{"model":"MT-WND","families":["g4dn","g4dn"],"config":[1,1]}`, api.ErrInvalidRequest},
		{`garbage`, api.ErrInvalidRequest},
	}
	for _, tc := range cases {
		rr := doReq(t, s, http.MethodPost, "/v1/evaluate", tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", tc.body, rr.Code)
			continue
		}
		if e := decodeErr(t, rr); e.Code != tc.code {
			t.Errorf("body %q: code %q, want %q", tc.body, e.Code, tc.code)
		}
	}
}

func TestOptimizeSync(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := newTestServer(t)
	body := `{"model":"MT-WND","families":["g4dn","t3"],"budget":25,"queries":4000}`
	rr := doReq(t, s, http.MethodPost, "/v1/optimize", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Found || len(resp.BestConfig) == 0 {
		t.Fatalf("optimize found nothing: %+v", resp)
	}
	if resp.Saving <= 0 {
		t.Fatalf("missing positive saving: %+v", resp)
	}
	if resp.Samples > 25 {
		t.Fatalf("samples %d exceed budget", resp.Samples)
	}
}

// TestOptimizeParallelMatchesSerial pins the API-level determinism
// contract: the same optimize request at parallelism 4 answers byte-for-byte
// like the serial one.
func TestOptimizeParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := newTestServer(t)
	base := `{"model":"MT-WND","families":["g4dn","t3"],"budget":12,"queries":800`
	serial := doReq(t, s, http.MethodPost, "/v1/optimize", base+`}`)
	parallel := doReq(t, s, http.MethodPost, "/v1/optimize", base+`,"parallelism":4}`)
	if serial.Code != http.StatusOK || parallel.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s", serial.Code, parallel.Code, parallel.Body.String())
	}
	if serial.Body.String() != parallel.Body.String() {
		t.Fatalf("parallel response diverged:\nserial:   %s\nparallel: %s",
			serial.Body.String(), parallel.Body.String())
	}
	rr := doReq(t, s, http.MethodPost, "/v1/optimize", base+`,"parallelism":-2}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("negative parallelism: status %d", rr.Code)
	}
}

// TestOptimizeBadBudget pins the satellite fix: a non-positive budget is the
// caller's mistake (400 + invalid_budget), not a 500.
func TestOptimizeBadBudget(t *testing.T) {
	s := newTestServer(t)
	for _, path := range []string{"/v1/optimize", "/v1/jobs", "/api/optimize"} {
		rr := doReq(t, s, http.MethodPost, path, `{"model":"MT-WND","budget":-3}`)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", path, rr.Code, rr.Body.String())
			continue
		}
		if e := decodeErr(t, rr); e.Code != api.ErrInvalidBudget {
			t.Errorf("%s: code %q, want %q", path, e.Code, api.ErrInvalidBudget)
		}
	}
}

// TestListEncodesEmptySlices pins the nil-slice satellite fix: list
// endpoints must encode [] rather than null.
func TestListEncodesEmptySlices(t *testing.T) {
	s := newTestServer(t)
	rr := doReq(t, s, http.MethodGet, "/v1/jobs", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var list map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil || string(list["jobs"]) != "[]" {
		t.Fatalf("empty job list should encode as [], got %s (%v)", rr.Body.String(), err)
	}
	for _, path := range []string{"/v1/models", "/v1/instances"} {
		rr := doReq(t, s, http.MethodGet, path, "")
		if strings.HasPrefix(strings.TrimSpace(rr.Body.String()), "null") {
			t.Fatalf("%s encoded null", path)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestServer(t)
	rr := doReq(t, s, http.MethodGet, "/v1/jobs/job-999999", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rr.Code)
	}
	if e := decodeErr(t, rr); e.Code != api.ErrNotFound {
		t.Fatalf("code %q", e.Code)
	}
	rr = doReq(t, s, http.MethodDelete, "/v1/jobs/job-999999", "")
	if rr.Code != http.StatusNotFound {
		t.Fatalf("delete status %d, want 404", rr.Code)
	}
}

func TestAliasParity(t *testing.T) {
	s := newTestServer(t)

	for _, pair := range [][2]string{
		{"/api/models", "/v1/models"},
		{"/api/instances", "/v1/instances"},
	} {
		old := doReq(t, s, http.MethodGet, pair[0], "")
		cur := doReq(t, s, http.MethodGet, pair[1], "")
		if old.Code != http.StatusOK {
			t.Fatalf("%s status %d", pair[0], old.Code)
		}
		if old.Body.String() != cur.Body.String() {
			t.Errorf("%s and %s disagree", pair[0], pair[1])
		}
		if old.Header().Get("Deprecation") != "true" {
			t.Errorf("%s missing Deprecation header", pair[0])
		}
		if sunset := old.Header().Get("Sunset"); sunset == "" {
			t.Errorf("%s missing Sunset header", pair[0])
		} else if _, err := http.ParseTime(sunset); err != nil {
			t.Errorf("%s Sunset header %q is not an HTTP date: %v", pair[0], sunset, err)
		}
		if !strings.Contains(old.Header().Get("Link"), pair[1]) {
			t.Errorf("%s missing successor Link header", pair[0])
		}
		// The successor routes must not advertise deprecation.
		if cur.Header().Get("Deprecation") != "" || cur.Header().Get("Sunset") != "" {
			t.Errorf("%s leaks deprecation headers", pair[1])
		}
	}

	body := `{"model":"MT-WND","families":["g4dn","t3"],"config":[5,0],"queries":1500}`
	old := doReq(t, s, http.MethodPost, "/api/evaluate", body)
	cur := doReq(t, s, http.MethodPost, "/v1/evaluate", body)
	if old.Code != http.StatusOK || old.Body.String() != cur.Body.String() {
		t.Errorf("evaluate alias disagrees: %d %s", old.Code, old.Body.String())
	}

	// Alias error handling is the v1 behavior, not the legacy one.
	rr := doReq(t, s, http.MethodPost, "/api/evaluate", `{"model":"nope","config":[1]}`)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("alias validation status %d", rr.Code)
	}
	if e := decodeErr(t, rr); e.Code != api.ErrUnknownModel {
		t.Fatalf("alias error code %q", e.Code)
	}
}

// TestWriteErrRetryAfter: every 503 carries the Retry-After hint and no
// other status does — the contract the client's backoff builds on.
func TestWriteErrRetryAfter(t *testing.T) {
	rr := httptest.NewRecorder()
	wire.WriteError(rr, &api.Error{Code: api.ErrOverloaded, Message: "queue full"})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status %d", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("503 Retry-After = %q, want \"1\"", got)
	}

	rr = httptest.NewRecorder()
	wire.WriteError(rr, &api.Error{Code: api.ErrNotFound, Message: "no such job"})
	if rr.Code != http.StatusNotFound {
		t.Fatalf("not-found status %d", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "" {
		t.Fatalf("non-503 carries Retry-After %q", got)
	}
}
