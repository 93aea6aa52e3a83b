package serving

// completion is a typed completion event on the simulator's hot path:
// instance Inst finishes the query with stream index Idx at Time. It is a
// plain value — pushing one onto a completionHeap allocates nothing once
// the heap's backing array has grown to the run's high-water mark.
type completion struct {
	// Time is the absolute completion time in milliseconds.
	Time float64
	// seq breaks time ties FIFO (scheduling order).
	seq uint64
	// Inst is the serving instance index; Idx is the query stream index.
	Inst, Idx int32
}

// completionHeap is a time-ordered min-heap of typed completion events with
// FIFO tie-breaking: no closures, no boxing, and the backing array is
// reusable across runs via Reset. Events pop by (Time, push order), so two
// completions at the same instant fire in the order they were scheduled —
// the contract Evaluate's bit-identical replay depends on.
type completionHeap struct {
	h   []completion
	seq uint64
}

// Len returns the number of pending completions.
func (q *completionHeap) Len() int { return len(q.h) }

// Reset empties the heap, keeping its backing array for reuse.
func (q *completionHeap) Reset() {
	q.h = q.h[:0]
	q.seq = 0
}

// MinTime returns the earliest pending completion time. It must not be
// called on an empty heap.
func (q *completionHeap) MinTime() float64 { return q.h[0].Time }

// Push schedules a completion of query idx on instance inst at time t.
func (q *completionHeap) Push(t float64, inst, idx int32) {
	q.seq++
	q.h = append(q.h, completion{Time: t, seq: q.seq, Inst: inst, Idx: idx})
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest pending completion.
func (q *completionHeap) Pop() completion {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *completionHeap) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *completionHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *completionHeap) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			return
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
}
