package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ribbon/api"
)

// decodeBody reads a whole response body as JSON into v.
func decodeBody(t *testing.T, r io.Reader, v any) {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
}

// TestInferBatchBound: a batch up to the served model's max batch is
// admitted; one above it is a typed 400 and never reaches the pool.
func TestInferBatchBound(t *testing.T) {
	g := newStaticGateway(t, Options{})
	h := g.Handler()
	maxBatch := g.spec.Model.Batch.MaxBatch
	post := func(batch int) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		body := fmt.Sprintf(`{"batch":%d}`, batch)
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
		return rr
	}
	if rr := post(maxBatch); rr.Code != http.StatusOK {
		t.Fatalf("batch %d (the max) = %d %s", maxBatch, rr.Code, rr.Body)
	}
	accepted := g.Metrics().Accepted
	rr := post(maxBatch + 1)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("batch %d = %d %s, want 400", maxBatch+1, rr.Code, rr.Body)
	}
	var er api.ErrorResponse
	decodeBody(t, rr.Body, &er)
	if er.Error == nil || er.Error.Code != api.ErrInvalidRequest {
		t.Fatalf("oversized batch error = %s", rr.Body)
	}
	if got := g.Metrics().Accepted; got != accepted {
		t.Fatalf("oversized batch admitted: accepted %d -> %d", accepted, got)
	}
}
