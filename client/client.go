// Package client is the Go client of the Ribbon control-plane v1 API: a
// thin, dependency-free wrapper over net/http that speaks the typed DTOs of
// package api. Every method takes a context and maps non-2xx responses to
// *api.Error values (with HTTPStatus populated), so callers branch on
// machine-readable codes:
//
//	c := client.New("http://localhost:8080")
//	job, err := c.CreateJob(ctx, api.OptimizeRequest{
//		ServiceSpec: api.ServiceSpec{Model: "MT-WND"},
//		Budget:      40,
//		Parallelism: 4, // prefetching parallel search; same result, less wall clock
//	})
//	if err != nil { ... }
//	job, err = c.WaitJob(ctx, job.ID, 500*time.Millisecond)
//
// The service spec optionally selects a dispatch policy and workload
// criticality mix (docs/dispatch.md), e.g.:
//
//	api.ServiceSpec{
//		Model:    "MT-WND",
//		Dispatch: &api.DispatchSpec{Policy: api.DispatchCriticality},
//		ClassMix: &api.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2},
//	}
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ribbon/api"
)

// Default retry policy: the server answers 503/overloaded when one of its
// bounded worker-pool queues (jobs, controllers, fleets) is momentarily
// full — a transient condition worth a couple of jittered retries before
// giving up.
const (
	defaultRetryAttempts = 3
	defaultRetryBase     = 100 * time.Millisecond
)

// Client talks to one ribbon-server (or, for the gateway endpoints, one
// ribbon-gateway).
type Client struct {
	base          string
	hc            *http.Client
	retryAttempts int
	retryBase     time.Duration
	logger        *slog.Logger

	// alerts remembers the firing set of the previous Alerts call so each
	// transition logs exactly once (see slo.go).
	alertMu sync.Mutex
	alerts  map[string]Alert
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, middlewares).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry tunes the overload retry policy: at most attempts tries in
// total (1 disables retrying), sleeping an equal-jittered exponential
// backoff within (base<<n)/2 .. base<<n before try n+1. The default is 3
// attempts at a 100ms base. Only 503/overloaded answers are retried — the
// server rejected the work before starting it, so a retry never duplicates
// anything.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		if attempts >= 1 {
			c.retryAttempts = attempts
		}
		if base > 0 {
			c.retryBase = base
		}
	}
}

// WithLogger attaches a log/slog logger (for example from
// ribbon.NewLogger); the retry loop then emits one backoff event per
// retried attempt, recording the route, the attempt number, and the chosen
// sleep. A nil logger, like no WithLogger at all, disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(c *Client) { c.logger = l }
}

// New builds a client for the server at baseURL, e.g. "http://host:8080".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:          strings.TrimRight(baseURL, "/"),
		hc:            http.DefaultClient,
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
	}
	for _, o := range opts {
		o(c)
	}
	if c.logger == nil {
		c.logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// do performs a round trip with the overload retry policy: 503/overloaded
// answers — a momentarily full worker-pool queue — are retried with
// jittered exponential backoff, up to the configured attempt bound, backing
// off only while the context allows it. A nil in skips the request body; a
// non-nil out receives the decoded 2xx response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		buf = b
	}
	attempts := c.retryAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		err := c.roundTrip(ctx, method, path, buf, out)
		if err == nil || attempt+1 >= attempts || !IsCode(err, api.ErrOverloaded) {
			return err
		}
		// Equal jitter over an exponentially growing window: at least half
		// the window — a guaranteed breather for the server — plus a random
		// half so a burst of overloaded clients spreads out instead of
		// reconverging.
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		window := c.retryBase << shift
		if window <= 0 {
			window = defaultRetryBase
		}
		half := int64(window / 2)
		sleep := time.Duration(half + rand.Int63n(half+1))
		// Honor a server-suggested Retry-After when it asks for more
		// patience than the backoff would grant — the server knows its own
		// queue — but never less: the jitter exists to de-synchronize
		// retrying clients and a fixed header value would undo it.
		if ra := retryAfterOf(err); ra > sleep {
			sleep = ra
		}
		c.logger.Warn("overloaded; backing off",
			"method", method, "path", path,
			"attempt", attempt+1, "attempts", attempts,
			"sleep_ms", sleep.Milliseconds(),
			"retry_after_ms", retryAfterOf(err).Milliseconds())
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
	}
}

// roundTrip performs one attempt of do.
func (c *Client) roundTrip(ctx context.Context, method, path string, buf []byte, out any) error {
	var body io.Reader
	if buf != nil {
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if buf != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er api.ErrorResponse
		if jerr := json.Unmarshal(raw, &er); jerr == nil && er.Error != nil {
			er.Error.HTTPStatus = resp.StatusCode
			er.Error.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			return er.Error
		}
		if resp.StatusCode == http.StatusNotFound {
			// A bare 404 without an error envelope (an unregistered route,
			// a proxy) still means "not here" — type it so callers like
			// Alerts can branch on the code.
			return &api.Error{
				Code:       api.ErrNotFound,
				Message:    fmt.Sprintf("%s %s: %s", method, path, bytes.TrimSpace(raw)),
				HTTPStatus: resp.StatusCode,
			}
		}
		return fmt.Errorf("client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Health probes the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Models fetches the model catalog.
func (c *Client) Models(ctx context.Context) ([]api.ModelInfo, error) {
	var out []api.ModelInfo
	err := c.do(ctx, http.MethodGet, "/v1/models", nil, &out)
	return out, err
}

// Instances fetches the cloud instance catalog.
func (c *Client) Instances(ctx context.Context) ([]api.InstanceInfo, error) {
	var out []api.InstanceInfo
	err := c.do(ctx, http.MethodGet, "/v1/instances", nil, &out)
	return out, err
}

// Evaluate measures one configuration synchronously.
func (c *Client) Evaluate(ctx context.Context, req api.EvaluateRequest) (api.EvaluateResponse, error) {
	var out api.EvaluateResponse
	err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out)
	return out, err
}

// Optimize runs a blocking search; cancelling the context aborts it
// server-side. Prefer CreateJob/WaitJob for budgets that take minutes.
func (c *Client) Optimize(ctx context.Context, req api.OptimizeRequest) (api.OptimizeResponse, error) {
	var out api.OptimizeResponse
	err := c.do(ctx, http.MethodPost, "/v1/optimize", req, &out)
	return out, err
}

// CreateJob submits an asynchronous optimize run and returns immediately
// with the queued job.
func (c *Client) CreateJob(ctx context.Context, req api.OptimizeRequest) (api.Job, error) {
	var out api.Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// Job fetches one job's current status, progress, and result.
func (c *Client) Job(ctx context.Context, id string) (api.Job, error) {
	var out api.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Jobs lists every job the server knows about.
func (c *Client) Jobs(ctx context.Context) ([]api.Job, error) {
	var out api.JobList
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// CancelJob asks the server to stop a queued or running job. The returned
// snapshot may still show it running; poll until Status.Terminal().
func (c *Client) CancelJob(ctx context.Context, id string) (api.Job, error) {
	var out api.Job
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// waitTerminal polls fetch until status reports a terminal state or the
// context ends; the shared loop behind WaitJob and WaitController. poll
// defaults to 250ms when non-positive.
func waitTerminal[T any](ctx context.Context, poll time.Duration,
	fetch func(context.Context) (T, error), status func(T) api.JobStatus) (T, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		v, err := fetch(ctx)
		if err != nil {
			var zero T
			return zero, err
		}
		if status(v).Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// WaitJob polls until the job reaches a terminal state or the context ends.
// poll defaults to 250ms when non-positive.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (api.Job, error) {
	return waitTerminal(ctx, poll,
		func(ctx context.Context) (api.Job, error) { return c.Job(ctx, id) },
		func(j api.Job) api.JobStatus { return j.Status })
}

// Scenarios lists the built-in load-fluctuation scenarios a controller can
// replay, with their phase shapes expanded.
func (c *Client) Scenarios(ctx context.Context) ([]api.ScenarioInfo, error) {
	var out api.ScenarioList
	err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out.Scenarios, err
}

// CreateController submits a continuous pool-controller run — the service
// replayed under a fluctuating load schedule, reconfiguring on confirmed
// shifts (docs/controller.md) — and returns immediately with the queued run:
//
//	ctl, err := c.CreateController(ctx, api.ControllerSpec{
//		ServiceSpec: api.ServiceSpec{Model: "MT-WND"},
//		Scenario:    "diurnal",
//	})
//	if err != nil { ... }
//	ctl, err = c.WaitController(ctx, ctl.ID, 500*time.Millisecond)
//	for _, rec := range ctl.Snapshot.Reconfigurations { ... }
func (c *Client) CreateController(ctx context.Context, spec api.ControllerSpec) (api.Controller, error) {
	var out api.Controller
	err := c.do(ctx, http.MethodPost, "/v1/controllers", spec, &out)
	return out, err
}

// Controller fetches one controller run's lifecycle status and live
// control-loop snapshot (including the reconfiguration history).
func (c *Client) Controller(ctx context.Context, id string) (api.Controller, error) {
	var out api.Controller
	err := c.do(ctx, http.MethodGet, "/v1/controllers/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Controllers lists every controller run the server knows about.
func (c *Client) Controllers(ctx context.Context) ([]api.Controller, error) {
	var out api.ControllerList
	err := c.do(ctx, http.MethodGet, "/v1/controllers", nil, &out)
	return out.Controllers, err
}

// CancelController asks the server to stop a queued or running controller
// run. The returned snapshot may still show it running; poll until
// Status.Terminal().
func (c *Client) CancelController(ctx context.Context, id string) (api.Controller, error) {
	var out api.Controller
	err := c.do(ctx, http.MethodDelete, "/v1/controllers/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitController polls until the controller run reaches a terminal state or
// the context ends. poll defaults to 250ms when non-positive.
func (c *Client) WaitController(ctx context.Context, id string, poll time.Duration) (api.Controller, error) {
	return waitTerminal(ctx, poll,
		func(ctx context.Context) (api.Controller, error) { return c.Controller(ctx, id) },
		func(ctl api.Controller) api.JobStatus { return ctl.Status })
}

// CreateFleet submits an asynchronous multi-model fleet optimization — a
// catalog of services sharing one $/hour budget (docs/fleet.md) — and
// returns immediately with the queued run:
//
//	fl, err := c.CreateFleet(ctx, api.FleetSpec{
//		Models: []api.FleetModelSpec{
//			{ServiceSpec: api.ServiceSpec{Model: "CANDLE"}},
//			{ServiceSpec: api.ServiceSpec{Model: "MT-WND"}, Weight: 2},
//		},
//		BudgetPerHour: 6.5,
//	})
//	if err != nil { ... }
//	fl, err = c.WaitFleet(ctx, fl.ID, 500*time.Millisecond)
//	for _, m := range fl.Snapshot.Models { fmt.Println(m.Name, m.Allocation) }
func (c *Client) CreateFleet(ctx context.Context, spec api.FleetSpec) (api.Fleet, error) {
	var out api.Fleet
	err := c.do(ctx, http.MethodPost, "/v1/fleets", spec, &out)
	return out, err
}

// Fleet fetches one fleet run's lifecycle status and live pipeline
// snapshot (per-model phases, and the budget allocation once solved).
func (c *Client) Fleet(ctx context.Context, id string) (api.Fleet, error) {
	var out api.Fleet
	err := c.do(ctx, http.MethodGet, "/v1/fleets/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Fleets lists every fleet run the server knows about.
func (c *Client) Fleets(ctx context.Context) ([]api.Fleet, error) {
	var out api.FleetList
	err := c.do(ctx, http.MethodGet, "/v1/fleets", nil, &out)
	return out.Fleets, err
}

// CancelFleet asks the server to stop a queued or running fleet run. The
// returned snapshot may still show it running; poll until
// Status.Terminal().
func (c *Client) CancelFleet(ctx context.Context, id string) (api.Fleet, error) {
	var out api.Fleet
	err := c.do(ctx, http.MethodDelete, "/v1/fleets/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitFleet polls until the fleet run reaches a terminal state or the
// context ends. poll defaults to 250ms when non-positive.
func (c *Client) WaitFleet(ctx context.Context, id string, poll time.Duration) (api.Fleet, error) {
	return waitTerminal(ctx, poll,
		func(ctx context.Context) (api.Fleet, error) { return c.Fleet(ctx, id) },
		func(f api.Fleet) api.JobStatus { return f.Status })
}

// IsCode reports whether err is an *api.Error with the given code.
func IsCode(err error, code api.ErrorCode) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == code
}

// maxRetryAfter caps how long a Retry-After header can park the retry loop;
// a server asking for more is answered by giving up faster via the normal
// attempt bound instead of stalling callers for minutes.
const maxRetryAfter = 30 * time.Second

// parseRetryAfter reads a Retry-After header value. Both RFC 9110 forms are
// accepted — delta-seconds and HTTP-date — and anything unparseable or
// negative maps to zero (no suggestion).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retryAfterOf extracts the server-suggested retry delay from an error
// chain, capped at maxRetryAfter.
func retryAfterOf(err error) time.Duration {
	var ae *api.Error
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		return 0
	}
	if ae.RetryAfter > maxRetryAfter {
		return maxRetryAfter
	}
	return ae.RetryAfter
}
