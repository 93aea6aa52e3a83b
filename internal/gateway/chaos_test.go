package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/cloud"
	"ribbon/internal/controller"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// testSpec families, in slot order: c5a, m5, t3.

func TestGatewayChaosScheduleRetiresInstances(t *testing.T) {
	g := newStaticGateway(t, Options{
		Initial: serving.Config{2, 2, 2},
		Chaos: &chaos.Schedule{Events: []chaos.CapacityEvent{
			{AtMs: 10, Kind: chaos.KindRevocation, Family: "c5a", Count: 1, WarningMs: 100},
		}},
	})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, out, err := g.Ingest(ctx, float64(i), 1, workload.ClassStandard, nil); err != nil || out != OutcomeQueued {
			t.Fatalf("ingest %d: out=%v err=%v", i, out, err)
		}
	}
	if got := g.Config(); got.Key() != "1+2+2" {
		t.Fatalf("pool after revocation = %v, want (1+2+2)", got)
	}
	s := g.Metrics()
	if s.Completed != 50 || s.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 50/0 — chaos dropped admitted work", s.Completed, s.Failed)
	}
	sawEvent := false
	for _, ev := range s.Events {
		if ev.Kind == "chaos_revocation" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("no chaos_revocation audit event: %+v", s.Events)
	}
}

func TestGatewayInjectAndRestoreClamp(t *testing.T) {
	g := newStaticGateway(t, Options{Initial: serving.Config{2, 2, 2}})
	if err := g.Inject(chaos.CapacityEvent{AtMs: 5, Kind: chaos.KindFailure, Family: "c5a", Count: 2}); err != nil {
		t.Fatal(err)
	}
	if got := g.Config(); got.Key() != "0+2+2" {
		t.Fatalf("pool after failure = %v, want (0+2+2)", got)
	}
	// Restores are bounded by what chaos took: the controller owns growth.
	if err := g.Inject(chaos.CapacityEvent{AtMs: 6, Kind: chaos.KindRestore, Family: "c5a", Count: 5}); err != nil {
		t.Fatal(err)
	}
	if got := g.Config(); got.Key() != "2+2+2" {
		t.Fatalf("pool after restore = %v, want (2+2+2)", got)
	}
	// Unknown family and invalid events are refused or ignored, not applied.
	if err := g.Inject(chaos.CapacityEvent{AtMs: 7, Kind: chaos.KindFailure, Family: "p4d", Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Inject(chaos.CapacityEvent{AtMs: -1, Kind: chaos.KindFailure, Family: "c5a", Count: 1}); err == nil {
		t.Fatal("invalid event accepted")
	}
	if got := g.Config(); got.Key() != "2+2+2" {
		t.Fatalf("pool drifted to %v", got)
	}
	// A request ingested now still serves on the restored pool.
	if _, out, err := g.Ingest(context.Background(), 10, 1, workload.ClassCritical, nil); err != nil || out != OutcomeQueued {
		t.Fatalf("post-chaos ingest: out=%v err=%v", out, err)
	}
}

// TestGatewayChaosForwardsToController: injected events must reach the
// controller's capacity path — the pool-health input — so its snapshot
// reports the degradation even before any response tick fires.
func TestGatewayChaosForwardsToController(t *testing.T) {
	g := newStaticGateway(t, Options{
		Initial:    serving.Config{2, 2, 2},
		Bounds:     []int{8, 8, 8},
		Controller: &controller.Params{WindowMs: 2000, TickMs: 500, AdaptBudget: 4},
		Sim:        serving.SimOptions{Seed: 42, Queries: 400, RateScale: 0.4},
	})
	// The warmup search runs on the controller goroutine; the degradation
	// ledger only marks incumbent instances, so wait for the incumbent.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := g.ControllerStatus()
		if !ok {
			t.Fatal("controller missing")
		}
		if len(st.Incumbent) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never initialized")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := g.Inject(chaos.CapacityEvent{AtMs: 5, Kind: chaos.KindFailure, Family: "m5", Count: 1}); err != nil {
		t.Fatal(err)
	}
	st, _ := g.ControllerStatus()
	if st.CapacityEvents != 1 {
		t.Fatalf("controller saw %d capacity events, want 1", st.CapacityEvents)
	}
	if !st.Degraded {
		t.Fatal("controller snapshot does not report the degraded pool")
	}
}

// TestGatewayMetricsCarryControllerDegradation: /v1/gateway/metrics must
// expose the controller's capacity view — live pool, degradation, event
// count and accrued spend — the same fields the control-plane server
// reports for a controller run.
func TestGatewayMetricsCarryControllerDegradation(t *testing.T) {
	g := newStaticGateway(t, Options{
		Controller: &controller.Params{WindowMs: 2000, TickMs: 500, AdaptBudget: 4},
		Sim:        serving.SimOptions{Seed: 42, Queries: 400, RateScale: 0.4},
	})
	// Arrivals drive the controller's ticks, and each tick accrues the
	// incumbent's spend; wait until the feed is drained and spend shows.
	const arrivals = 12
	for i := 1; i <= arrivals; i++ {
		g.IngestAsync(float64(100*i), 1, workload.ClassStandard)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := g.ControllerStatus()
		if st.Arrivals == arrivals && st.AccruedCost > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never accrued spend: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := g.Inject(chaos.CapacityEvent{AtMs: 1250, Kind: chaos.KindRevocation, Family: "m5", Count: 1}); err != nil {
		t.Fatal(err)
	}
	cs := g.MetricsDTO().Controller
	if cs == nil {
		t.Fatal("metrics carry no controller snapshot")
	}
	if len(cs.LiveConfig) == 0 || !cs.Degraded || cs.CapacityEvents != 1 || cs.AccruedCost <= 0 {
		t.Fatalf("controller snapshot lost capacity fields: live_config=%v degraded=%v capacity_events=%d accrued_cost=%g",
			cs.LiveConfig, cs.Degraded, cs.CapacityEvents, cs.AccruedCost)
	}
}

// --- ProxyBackend hardening (flaky upstream coverage) ---

func proxyBatch(payloads ...[]byte) *Batch {
	return &Batch{Requests: len(payloads), Samples: len(payloads), Payloads: payloads}
}

func TestProxyBackendRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	p := &ProxyBackend{Target: srv.URL, MaxRetries: 3, RetryBackoffMs: 1}
	b := proxyBatch([]byte("x"))
	if _, err := p.Serve(context.Background(), cloud.InstanceType{}, b); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if b.Errs != nil {
		t.Fatalf("request failed despite retries: %v", b.Errs)
	}
	if got := string(b.Bodies[0]); got != "ok" {
		t.Fatalf("body %q, want ok", got)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("upstream saw %d attempts, want 3 (2 failures + 1 success)", n)
	}
}

func TestProxyBackendDoesNotRetryPermanentAnswers(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()
	p := &ProxyBackend{Target: srv.URL, MaxRetries: 5, RetryBackoffMs: 1}
	b := proxyBatch([]byte("x"))
	if _, err := p.Serve(context.Background(), cloud.InstanceType{}, b); err != nil {
		t.Fatalf("batch-level error for a per-request failure: %v", err)
	}
	if b.Errs == nil || b.Errs[0] == nil {
		t.Fatal("400 answer not reported in Errs")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("upstream saw %d attempts for a permanent failure, want 1", n)
	}
}

func TestProxyBackendAttemptTimeoutRecovers(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // wedge only the first attempt
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	p := &ProxyBackend{Target: srv.URL, AttemptTimeoutMs: 50, MaxRetries: 2, RetryBackoffMs: 1}
	b := proxyBatch([]byte("x"))
	start := time.Now()
	if _, err := p.Serve(context.Background(), cloud.InstanceType{}, b); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if b.Errs != nil {
		t.Fatalf("wedged first attempt not recovered: %v", b.Errs)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Fatalf("per-attempt timeout did not cut the wedged attempt short (%v)", elapsed)
	}
}

func TestProxyBackendPartialBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 8)
		n, _ := r.Body.Read(buf)
		if string(buf[:n]) == "bad" {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "served")
	}))
	defer srv.Close()
	p := &ProxyBackend{Target: srv.URL, MaxRetries: 1, RetryBackoffMs: 1}
	b := proxyBatch([]byte("good"), []byte("bad"))
	if _, err := p.Serve(context.Background(), cloud.InstanceType{}, b); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if b.Errs == nil {
		t.Fatal("partial failure not reported")
	}
	if b.Errs[0] != nil {
		t.Fatalf("healthy request failed: %v", b.Errs[0])
	}
	if b.Errs[1] == nil {
		t.Fatal("failing request reported success")
	}
	if got := string(b.Bodies[0]); got != "served" {
		t.Fatalf("healthy body %q, want served", got)
	}
}

func TestProxyBackendContextCancellation(t *testing.T) {
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-done:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(done) // unwedge the handler before srv.Close waits on it
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	p := &ProxyBackend{Target: srv.URL, MaxRetries: 3, RetryBackoffMs: 1}
	b := proxyBatch([]byte("x"))
	if _, err := p.Serve(ctx, cloud.InstanceType{}, b); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
}

// --- Partial-batch tiering inside the data plane ---

// flakyOnce fails each batch's requests exactly once (per-request Errs), then
// serves cleanly — the transient-blip shape the re-queue path exists for.
func flakyOnce(failures *atomic.Int64, budget int64) backendFunc {
	return func(ctx context.Context, _ cloud.InstanceType, b *Batch) (float64, error) {
		if failures.Add(1) <= budget {
			b.Errs = make([]error, b.Requests)
			for i := range b.Errs {
				b.Errs[i] = errors.New("transient upstream blip")
			}
		}
		return 0.01, nil
	}
}

func TestGatewayRequeuesStandardOnPartialFailure(t *testing.T) {
	var failures atomic.Int64
	g := newStaticGateway(t, Options{
		Initial: serving.Config{1, 1, 0},
		Backend: flakyOnce(&failures, 1),
	})
	resp, out, err := g.Ingest(context.Background(), 1, 1, workload.ClassStandard, nil)
	if err != nil || out != OutcomeQueued {
		t.Fatalf("flaky ingest: out=%v err=%v", out, err)
	}
	if resp.Instance == "" {
		t.Fatal("no serving instance after re-queue")
	}
	s := g.Metrics()
	if s.Requeued != 1 {
		t.Fatalf("requeued=%d, want 1", s.Requeued)
	}
	if s.Failed != 0 || s.Completed != 1 {
		t.Fatalf("failed=%d completed=%d after a recoverable blip", s.Failed, s.Completed)
	}
}

func TestGatewayShedsSheddableOnPartialFailure(t *testing.T) {
	var failures atomic.Int64
	g := newStaticGateway(t, Options{
		Initial: serving.Config{1, 1, 0},
		Backend: flakyOnce(&failures, 1),
	})
	resp, out, err := g.Ingest(context.Background(), 1, 1, workload.ClassSheddable, nil)
	if out != OutcomeQueued {
		t.Fatalf("outcome %v", out)
	}
	if err == nil || resp.Err == nil {
		t.Fatal("shed sheddable request reported success")
	}
	s := g.Metrics()
	if s.Shed != 1 || s.Requeued != 0 || s.Failed != 0 {
		t.Fatalf("shed=%d requeued=%d failed=%d, want 1/0/0", s.Shed, s.Requeued, s.Failed)
	}
}

func TestGatewayRequeueCapFailsLoudly(t *testing.T) {
	var failures atomic.Int64
	g := newStaticGateway(t, Options{
		Initial: serving.Config{1, 1, 0},
		Backend: flakyOnce(&failures, 1<<40), // never recovers
	})
	resp, out, err := g.Ingest(context.Background(), 1, 1, workload.ClassCritical, nil)
	if out != OutcomeQueued {
		t.Fatalf("outcome %v", out)
	}
	if err == nil || resp.Err == nil {
		t.Fatal("exhausted request reported success")
	}
	s := g.Metrics()
	if s.Requeued != requeueLimit {
		t.Fatalf("requeued=%d, want the cap %d", s.Requeued, requeueLimit)
	}
	if s.Failed != 1 {
		t.Fatalf("failed=%d, want 1", s.Failed)
	}
}
