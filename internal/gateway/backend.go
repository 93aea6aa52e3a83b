package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ribbon/internal/cloud"
	"ribbon/internal/models"
	"ribbon/internal/perf"
)

// Batch is one fused unit of backend work: the requests an instance worker
// collected before the max-batch-size or flush-timeout bound fired.
type Batch struct {
	// Requests is the number of fused queries; Samples their summed batch
	// sizes (the quantity the performance model prices).
	Requests int
	Samples  int
	// Payloads carries the per-request bodies when the data plane received
	// any (HTTP ingress); nil for payload-free floods. Bodies receives the
	// per-request backend responses when the backend produces them.
	Payloads [][]byte
	Bodies   [][]byte
	// Errs, when non-nil, carries per-request failures: a backend that can
	// fail part of a batch (ProxyBackend) sets Errs[i] for exactly the
	// requests that failed and returns a nil batch-level error, so the
	// worker can re-queue or shed the casualties by tier instead of failing
	// the whole batch. A non-nil batch-level error still fails everything.
	Errs []error
}

// Backend executes batches on behalf of a live pool instance. Serve blocks
// for the duration of the batch — the instance is busy exactly while Serve
// runs — and returns the service time in stream-time milliseconds (the time
// base latencies and QoS targets are expressed in).
//
// Implementations must be safe for concurrent use: every live instance calls
// Serve from its own worker goroutine.
type Backend interface {
	Serve(ctx context.Context, t cloud.InstanceType, b *Batch) (serviceMs float64, err error)
}

// SimBackend serves batches by sleeping out the calibrated service time of
// the instance type under the model profile (internal/perf, the same latency
// model the offline simulator uses), scaled into wall time by TimeScale. It
// makes the whole serving loop — gateway, batching, live adaptation —
// testable and benchmarkable on a laptop with no GPUs attached.
type SimBackend struct {
	// Model is the served model profile.
	Model models.Profile
	// TimeScale maps stream-time milliseconds to wall time: a batch whose
	// modeled service time is m ms occupies the instance for m*TimeScale
	// wall milliseconds. 1 (real time) when zero; 0.01 runs floods a
	// hundred times faster than real time.
	TimeScale float64
	// Seed derives the service-time noise streams.
	Seed uint64

	rngs rngLease
}

// NewSimBackend builds a simulated backend for the model.
func NewSimBackend(m models.Profile, timeScale float64, seed uint64) *SimBackend {
	if timeScale == 0 {
		timeScale = 1
	}
	if timeScale < 0 {
		panic(fmt.Sprintf("gateway: negative time scale %g", timeScale))
	}
	return &SimBackend{Model: m, TimeScale: timeScale, Seed: seed}
}

// Serve sleeps out the modeled service time for the batch.
func (s *SimBackend) Serve(ctx context.Context, t cloud.InstanceType, b *Batch) (float64, error) {
	// Workers run concurrently, and live service noise needs independent
	// streams, not replayability.
	r := s.rngs.get(s.Seed, "service")
	ms := perf.NoisyServiceMs(s.Model, t, b.Samples, r)
	s.rngs.put(r)
	scale := s.TimeScale
	if scale == 0 {
		scale = 1
	}
	if err := sleepFor(ctx, time.Duration(ms*scale*float64(time.Millisecond))); err != nil {
		return ms, err
	}
	return ms, nil
}

// sleepFor sleeps d with sub-millisecond precision: a coarse timer for the
// bulk and a short spin for the remainder, so heavily time-compressed floods
// (service times below the platform timer resolution) do not systematically
// under-drive the pool. The spin budget is deliberately small: every live
// worker pays it per served batch, and a compressed flood runs thousands of
// batches per wall second — a generous spin would burn more cores than the
// simulated pool has.
func sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	const spin = 100 * time.Microsecond
	due := time.Now().Add(d)
	if d > spin {
		t := time.NewTimer(d - spin)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for time.Now().Before(due) {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ProxyBackend forwards batches to a real inference endpoint over HTTP: each
// request in the batch becomes one POST to Target (concurrently — fusing a
// batch into a single endpoint call is model-specific and out of scope for a
// transport), and the measured wall time divided by TimeScale is reported as
// the service time. Use it to put the gateway's routing, batching, and
// shedding in front of an actual serving endpoint.
//
// Failure semantics are per request, not per batch: each forwarded request
// gets AttemptTimeoutMs per attempt and up to MaxRetries capped, jittered,
// exponentially backed-off re-sends on transient failures (transport errors,
// 5xx, 429). Permanent answers (other 4xx) never retry. Requests that
// exhaust their attempts land in Batch.Errs — the instance worker re-queues
// or sheds them by tier — while the rest of the batch completes normally.
type ProxyBackend struct {
	// Target is the endpoint URL, e.g. "http://10.0.0.7:8501/v1/predict".
	Target string
	// Client performs the forwarded requests; http.DefaultClient when nil.
	Client *http.Client
	// TimeScale converts measured wall milliseconds into stream-time
	// milliseconds; 1 when zero (real endpoints live in real time).
	TimeScale float64
	// AttemptTimeoutMs bounds each forwarded attempt in wall milliseconds,
	// layered under the caller's context deadline (whichever is tighter
	// wins); 0 leaves the caller's context as the only bound.
	AttemptTimeoutMs float64
	// MaxRetries is the number of re-sends after the first attempt on a
	// transient failure; 0 disables retries.
	MaxRetries int
	// RetryBackoffMs is the base wall-clock backoff before a retry, doubled
	// per attempt and jittered to 50–150% so synchronized casualties do not
	// retry in lockstep; 25 when zero and retries are enabled.
	RetryBackoffMs float64
	// Seed derives the jitter streams.
	Seed uint64

	rngs rngLease
}

// errPermanent wraps an upstream answer that retrying cannot fix.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// Serve forwards every request of the batch concurrently. Per-request
// failures are reported through b.Errs; the batch-level error is reserved
// for caller-context cancellation, where nothing should be retried or
// partially kept.
func (p *ProxyBackend) Serve(ctx context.Context, t cloud.InstanceType, b *Batch) (float64, error) {
	n := b.Requests
	if n < 1 {
		n = 1
	}
	bodies := make([][]byte, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var payload []byte
		if i < len(b.Payloads) {
			payload = b.Payloads[i]
		}
		wg.Add(1)
		go func(i int, payload []byte) {
			defer wg.Done()
			bodies[i], errs[i] = p.forward(ctx, payload)
		}(i, payload)
	}
	wg.Wait()
	scale := p.TimeScale
	if scale == 0 {
		scale = 1
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond) / scale
	if err := ctx.Err(); err != nil {
		return ms, err
	}
	failed := false
	for _, err := range errs {
		if err != nil {
			failed = true
			break
		}
	}
	b.Bodies = bodies
	if failed {
		b.Errs = errs
	}
	return ms, nil
}

// forward performs one request's attempt loop.
func (p *ProxyBackend) forward(ctx context.Context, payload []byte) ([]byte, error) {
	hc := p.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	backoff := p.RetryBackoffMs
	if backoff == 0 {
		backoff = 25
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		body, err := p.attempt(ctx, hc, payload)
		if err == nil {
			return body, nil
		}
		lastErr = err
		var perm errPermanent
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		if attempt >= p.MaxRetries || ctx.Err() != nil {
			return nil, lastErr
		}
		// Jittered exponential backoff: base * 2^attempt * U[0.5, 1.5).
		r := p.rngs.get(p.Seed, "proxy-jitter")
		j := 0.5 + r.Float64()
		p.rngs.put(r)
		wait := time.Duration(backoff * float64(int(1)<<attempt) * j * float64(time.Millisecond))
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, lastErr
		}
	}
}

// attempt performs one forwarded POST under the per-attempt timeout. The
// caller's context deadline propagates into the upstream request; the
// attempt timeout only ever tightens it.
func (p *ProxyBackend) attempt(ctx context.Context, hc *http.Client, payload []byte) ([]byte, error) {
	if p.AttemptTimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(p.AttemptTimeoutMs*float64(time.Millisecond)))
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.Target, bytes.NewReader(payload))
	if err != nil {
		return nil, errPermanent{err}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err // transport errors and timeouts are transient
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return body, nil
	}
	answered := fmt.Errorf("gateway: backend %s answered %s", p.Target, resp.Status)
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return nil, answered
	}
	return nil, errPermanent{answered}
}
