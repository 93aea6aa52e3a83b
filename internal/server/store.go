package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ribbon/api"
	"ribbon/internal/wire"
)

// lifecycle is the shared server-side run state every store item embeds:
// identity, job-style status, timestamps, terminal error, and the cancel
// hook set while running. All fields are guarded by the owning store's
// mutex.
type lifecycle struct {
	id       string
	status   api.JobStatus
	created  time.Time
	started  *time.Time
	finished *time.Time
	err      *api.Error
	cancel   context.CancelFunc // set while running
}

// store is the concurrency-safe registry plus bounded worker pool shared by
// the job, controller, and fleet lifecycles. Exactly one copy of the
// worker/queue/evict/cancel machinery exists — the three lifecycles stay
// behaviorally identical by construction, so a concurrency fix (see in
// particular run's cancel-vs-finish ordering note) lands in all of them at
// once.
//
// T is the item type (embedding lifecycle), V its wire representation.
type store[T, V any] struct {
	kind     string // "job" | "controller" | "fleet": error messages
	idPrefix string // "job" | "ctl" | "fleet": id minting

	// lc exposes the item's embedded lifecycle; exec runs one item on a
	// worker goroutine (outside the store lock — it must not touch fields
	// that views read); view snapshots an item as its wire form and is
	// always called under st.mu. finish, when set, publishes exec's
	// outcome into view-visible fields — it runs in the same critical
	// section that finalizes the status, so a result is never observable
	// on a non-terminal item.
	lc     func(*T) *lifecycle
	exec   func(context.Context, *T) *api.Error
	view   func(*T) V
	finish func(*T)

	// hooks, when non-nil, publishes lifecycle transitions into the
	// metrics registry (see serverMetrics.storeHooks). Set once, before
	// any item is added.
	hooks *storeHooks

	mu         sync.Mutex
	cond       *sync.Cond // signaled when pending grows or the store closes
	items      map[string]*T
	order      []string
	pending    []*T // queued items not yet picked by a worker
	seq        int
	closed     bool
	queueDepth int
	retain     int // max terminal items kept for polling

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

func newStore[T, V any](kind, idPrefix string, workers, queueDepth, retain int,
	lc func(*T) *lifecycle, exec func(context.Context, *T) *api.Error, view func(*T) V) *store[T, V] {
	ctx, cancel := context.WithCancel(context.Background())
	st := &store[T, V]{
		kind:       kind,
		idPrefix:   idPrefix,
		lc:         lc,
		exec:       exec,
		view:       view,
		items:      map[string]*T{},
		queueDepth: queueDepth,
		retain:     retain,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	st.cond = sync.NewCond(&st.mu)
	st.wg.Add(workers)
	for range workers {
		go st.worker()
	}
	return st
}

// worker pops pending items until the store closes.
func (st *store[T, V]) worker() {
	defer st.wg.Done()
	for {
		st.mu.Lock()
		for len(st.pending) == 0 && !st.closed {
			st.cond.Wait()
		}
		if len(st.pending) == 0 {
			st.mu.Unlock()
			return
		}
		t := st.pending[0]
		st.pending = st.pending[1:]
		st.mu.Unlock()
		st.run(t)
	}
}

// close cancels everything in flight and stops the workers.
func (st *store[T, V]) close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.baseCancel()
	st.wg.Wait()
}

// add registers an already-resolved item and enqueues it. It never blocks:
// a full queue is an overload error. The item's lifecycle is initialized
// here (id, queued status, creation time).
func (st *store[T, V]) add(t *T) (V, *api.Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var zero V
	if st.closed {
		return zero, &api.Error{Code: api.ErrOverloaded, Message: "server is shutting down"}
	}
	if len(st.pending) >= st.queueDepth {
		return zero, &api.Error{Code: api.ErrOverloaded,
			Message: fmt.Sprintf("%s queue is full (%d pending)", st.kind, len(st.pending))}
	}
	st.seq++
	l := st.lc(t)
	l.id = fmt.Sprintf("%s-%06d", st.idPrefix, st.seq)
	l.status = api.JobQueued
	l.created = time.Now()
	st.items[l.id] = t
	st.order = append(st.order, l.id)
	st.pending = append(st.pending, t)
	st.evictLocked()
	st.cond.Signal()
	st.hooks.add()
	return st.view(t), nil
}

// evictLocked drops the oldest terminal items once more than retain are
// kept, so a long-lived control plane does not grow without bound. Active
// items are never evicted. Callers hold st.mu.
func (st *store[T, V]) evictLocked() {
	excess := len(st.items) - st.retain
	if excess <= 0 {
		return
	}
	kept := st.order[:0]
	for _, id := range st.order {
		if excess > 0 && st.lc(st.items[id]).status.Terminal() {
			delete(st.items, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// run executes one item on a worker goroutine.
func (st *store[T, V]) run(t *T) {
	l := st.lc(t)
	st.mu.Lock()
	if l.status != api.JobQueued { // cancelled while waiting
		st.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(st.baseCtx)
	l.cancel = cancel
	now := time.Now()
	l.started = &now
	l.status = api.JobRunning
	st.mu.Unlock()
	st.hooks.start()
	defer cancel()

	e := st.exec(ctx, t)

	st.mu.Lock()
	defer st.mu.Unlock()
	end := time.Now()
	l.finished = &end
	if st.finish != nil {
		st.finish(t)
	}
	switch {
	case ctx.Err() != nil:
		// Checked under the store lock, where cancel() runs: any DELETE
		// acknowledged before this point — even one landing while exec's
		// post-search work was still running — is honored as a
		// cancellation rather than silently finalizing as done.
		l.status = api.JobCancelled
		l.err = nil
	case e != nil:
		l.status = api.JobFailed
		l.err = e
	default:
		l.status = api.JobDone
	}
	st.hooks.finish(l.status, true)
}

// cancel stops a queued or running item.
func (st *store[T, V]) cancel(id string) (V, *api.Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var zero V
	t, ok := st.items[id]
	if !ok {
		return zero, st.notFound(id)
	}
	l := st.lc(t)
	switch l.status {
	case api.JobQueued:
		now := time.Now()
		l.finished = &now
		l.status = api.JobCancelled
		// Free the queue slot immediately so cancelled items do not
		// count against the queue depth.
		for i, p := range st.pending {
			if p == t {
				st.pending = append(st.pending[:i], st.pending[i+1:]...)
				break
			}
		}
		st.hooks.finish(api.JobCancelled, false)
	case api.JobRunning:
		l.cancel() // run() observes the context and finalizes the item
	default:
		return zero, &api.Error{Code: api.ErrJobFinished,
			Message: fmt.Sprintf("%s %s already %s", st.kind, id, l.status)}
	}
	return st.view(t), nil
}

func (st *store[T, V]) get(id string) (V, *api.Error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.items[id]
	if !ok {
		var zero V
		return zero, st.notFound(id)
	}
	return st.view(t), nil
}

func (st *store[T, V]) notFound(id string) *api.Error {
	return &api.Error{Code: api.ErrNotFound, Message: fmt.Sprintf("no %s %q", st.kind, id)}
}

// list returns every item in creation order; always a non-nil slice so the
// endpoints encode [] rather than null.
func (st *store[T, V]) list() []V {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]V, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.view(st.items[id]))
	}
	return out
}

// runRoutes mounts one store's create/list/get/cancel handlers at
// /v1/<kind>s. resolve turns a decoded, validated request into an item
// for the store to enqueue, so an invalid or unknown-model request is a
// synchronous 400 rather than an asynchronous failure found by polling;
// list wraps the items in the kind's list DTO.
func runRoutes[T, V any, R validator](mux *http.ServeMux, st *store[T, V],
	resolve func(R) (*T, *api.Error), list func([]V) any) {
	base := "/v1/" + st.kind + "s"
	mux.HandleFunc("POST "+base, func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeValid[R](w, r)
		if !ok {
			return
		}
		t, e := resolve(req)
		if e != nil {
			wire.WriteError(w, e)
			return
		}
		v, e := st.add(t)
		if e != nil {
			wire.WriteError(w, e)
			return
		}
		w.Header().Set("Location", base+"/"+st.lc(t).id)
		wire.WriteJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET "+base, func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, list(st.list()))
	})
	item := func(op func(id string) (V, *api.Error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			v, e := op(r.PathValue("id"))
			if e != nil {
				wire.WriteError(w, e)
				return
			}
			wire.WriteJSON(w, http.StatusOK, v)
		}
	}
	mux.HandleFunc("GET "+base+"/{id}", item(st.get))
	mux.HandleFunc("DELETE "+base+"/{id}", item(st.cancel))
}

// validator is a request type that checks its own schema.
type validator interface{ Validate() *api.Error }

// decodeValid decodes and validates a request body, answering the error
// itself when either step fails.
func decodeValid[R validator](w http.ResponseWriter, r *http.Request) (R, bool) {
	var req R
	e := wire.Decode(w, r, &req)
	if e == nil {
		e = req.Validate()
	}
	if e != nil {
		wire.WriteError(w, e)
		return req, false
	}
	return req, true
}
