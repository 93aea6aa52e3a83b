package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadResult is what one open-loop run observed, per request: when it
// completed, and how late the generator released a request it was waiting
// for (0 when the request was already overdue because every connection was
// busy, which is the program's delay, not the generator's). A request's
// latency is done minus its due time, so a stall that holds up a connection
// charges every request queued behind it.
type loadResult struct {
	done []time.Duration
	late []time.Duration
	errs []error
}

// runOpenLoop sends request i at due[i] after the start, whatever happened
// to the requests before it, over conns senders: each free sender takes the
// next request, waits for its due time and sends it, so a slow program
// builds a backlog instead of receiving less load, and a request never
// waits for a hand-off between goroutines. send performs request i on sender
// c and blocks until its response is in. It returns when every request has
// completed.
func runOpenLoop(due []time.Duration, conns int, send func(c, i int) error) loadResult {
	n := len(due)
	lr := loadResult{done: make([]time.Duration, n), late: make([]time.Duration, n), errs: make([]error, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if wait := due[i] - time.Since(start); wait > 0 {
					sleep(wait)
					lr.late[i] = time.Since(start) - due[i]
				}
				lr.errs[i] = send(c, i)
				lr.done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return lr
}

// sleep blocks the calling thread for d. The runtime's timers wake up to a
// millisecond late on Linux, which at a few thousand requests per second
// would make the generator's own slack most of the measured latency; a
// nanosleep wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
