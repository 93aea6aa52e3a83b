package server

import (
	"context"
	"math"
	"time"

	"ribbon"
	"ribbon/api"
)

// job is the server-side state of one asynchronous optimize run. req and
// opt are immutable after create; the lifecycle and progress/result fields
// are behind the store mutex. pending is the worker's staging slot for the
// assembled summary — only exec writes it and only finish reads it, so the
// view-visible result appears atomically with the terminal status.
type job struct {
	lifecycle
	req      api.OptimizeRequest
	opt      *ribbon.Optimizer
	progress api.JobProgress
	pending  *api.OptimizeResponse
	result   *api.OptimizeResponse
}

// jobStore is the job lifecycle over the shared store machinery
// (store.go): bounded workers, queue, eviction, cooperative cancel.
// defaultBudget fills a request that omits its budget.
type jobStore struct {
	*store[job, api.Job]
	sm            *serverMetrics
	defaultBudget int
}

func newJobStore(workers, queueDepth, retain int, sm *serverMetrics) *jobStore {
	st := &jobStore{sm: sm}
	st.store = newStore("job", "job", workers, queueDepth, retain,
		func(j *job) *lifecycle { return &j.lifecycle },
		func(ctx context.Context, j *job) *api.Error { return execJob(ctx, j, sm) },
		(*job).view)
	st.store.finish = func(j *job) { j.result = j.pending }
	return st
}

// execJob runs one search on a worker goroutine. The summary assembles
// here — the homogeneous-baseline comparison spends extra evaluations and
// is skipped for cancelled jobs, whose partial summary is still kept — but
// stages in j.pending: the finish hook publishes it together with the
// terminal status, so a poll never sees a result on a running job.
func execJob(ctx context.Context, j *job, sm *serverMetrics) *api.Error {
	t0 := time.Now()
	res, err := j.opt.RunContext(ctx, j.req.Budget)
	sm.observeSearch(time.Since(t0))
	if ctx.Err() == nil && err != nil {
		return &api.Error{Code: api.ErrInternal, Message: err.Error()}
	}
	r := optimizeResponse(j.opt, res, ctx.Err() == nil)
	j.pending = &r
	return nil
}

// resolve validates the request against the catalogs and builds the job
// for the store to enqueue.
func (st *jobStore) resolve(req api.OptimizeRequest) (*job, *api.Error) {
	if req.Budget == 0 {
		req.Budget = st.defaultBudget
	}
	j := &job{req: req}
	// Resolve the spec now so an unknown model is a synchronous 400, not
	// an asynchronous failure the caller discovers by polling. The
	// progress callback owns the live Samples/BestCost view.
	opt, e := newOptimizer(req.ServiceSpec, ribbon.SearchOptions{
		Parallelism: req.Parallelism,
		Mode:        searchMode(req.SearchMode),
		Progress: func(step ribbon.Step) {
			st.observe(j, step)
		}}, st.sm)
	if e != nil {
		return nil, e
	}
	j.opt = opt
	return j, nil
}

// observe is the per-step progress hook.
func (st *jobStore) observe(j *job, step ribbon.Step) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !step.Estimated {
		j.progress.Samples++
	}
	if !math.IsInf(step.BestCost, 1) {
		j.progress.Found = true
		j.progress.BestCostPerHour = step.BestCost
	}
}

// view snapshots the job as its wire representation. Callers hold st.mu.
func (j *job) view() api.Job {
	return api.Job{
		ID:         j.id,
		Status:     j.status,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Request:    j.req,
		Progress:   j.progress,
		Result:     j.result,
		Error:      j.err,
	}
}
