// Package eventq is the bucketed calendar event queue of the
// discrete-event stream engine (internal/stream), which internal/sim
// runs single inferences through.
//
// The engine schedules set completions whose timestamps advance
// monotonically and whose increments are bounded: a completion pushed
// at simulation time `now` lands at `start + cycles`, where start is at
// most a few edge-cost cycles past now and cycles is bounded by the
// longest set of the workload. Under that regime a calendar queue
// (Brown, CACM 1988) replaces the binary heap's O(log n) sift with O(1)
// amortized push/pop: events hash into a ring of time buckets of fixed
// width, the pop scan walks the ring from the current bucket, and the
// bounded increment guarantees every live event sits within one lap.
//
// Each bucket is kept sorted by (Time, Seq) on insertion. The engine
// pushes in nearly ascending order — sequence numbers only grow, and at
// the finest granularity a bucket is one cycle wide — so the backward
// insertion walk is O(1) in the common case. Pop then takes the
// bucket's head through a per-bucket head index, with no scan inside
// the bucket.
//
// Determinism is preserved exactly: Pop returns the strict minimum
// under the (Time, Seq) order the heap used, because days (bucket
// indices) are strictly ordered along the scan, every bucket holds
// events of one day only, and each bucket's head is its (Time, Seq)
// minimum. Events whose time exceeds the ring's horizon (possible only
// under unbounded caller-supplied edge costs) overflow into a side list
// and migrate back once the clock catches up, so correctness never
// depends on the increment bound — only speed does.
//
// Init shapes the ring for a workload's bound; a Queue is not safe for
// concurrent use.
package eventq

// Event is one queue element: ordered by (Time, Seq), carrying the
// engine's payload P (a flat set id, a job/set pair, ...).
type Event[P any] struct {
	Time int64
	Seq  int64
	P    P
}

// Queue is a bucketed calendar queue over monotonically advancing
// event time. The zero value is empty but unshaped; call Init before
// the first Push.
type Queue[P any] struct {
	buckets []bucket[P]
	mask    int64 // len(buckets)-1; len is a power of two
	shift   uint  // bucket width = 1 << shift cycles

	now   int64 // time of the last popped event (monotonic)
	ringN int   // events currently in the ring

	overflow    []Event[P] // events beyond the ring horizon
	overflowMin int64      // min Time in overflow (valid when non-empty)
}

// bucket holds the events of one day in (Time, Seq) order; ev[:head]
// are already popped. A drained bucket rewinds to the start of its
// storage, so the storage never outgrows one day's events.
type bucket[P any] struct {
	ev   []Event[P]
	head int
}

// insert places e in (Time, Seq) order, walking back from the tail.
func (b *bucket[P]) insert(e Event[P]) {
	b.ev = append(b.ev, e)
	i := len(b.ev) - 1
	for ; i > b.head && less(e, b.ev[i-1]); i-- {
		b.ev[i] = b.ev[i-1]
	}
	b.ev[i] = e
}

func less[P any](a, b Event[P]) bool {
	return a.Time < b.Time || (a.Time == b.Time && a.Seq < b.Seq)
}

// Init shapes the queue for a run: span is the maximum push increment
// (an upper bound on e.Time - now at push time; pushes beyond it are
// still correct, just slower), and width the expected number of
// concurrently pending events. Events still pending from an abandoned
// run are discarded.
func (q *Queue[P]) Init(span int64, width int) {
	if span < 1 {
		span = 1
	}
	nb := 16
	for nb < 2*width && nb < 8192 {
		nb <<= 1
	}
	var shift uint
	// Every push within span must land under one lap of the ring:
	// day(now+span) - day(now) <= (span >> shift) + 1 <= nb-1.
	for span>>shift > int64(nb-2) {
		shift++
	}
	q.buckets = make([]bucket[P], nb)
	q.mask = int64(nb - 1)
	q.shift = shift
	q.now = 0
	q.ringN = 0
	q.overflow = q.overflow[:0]
}

// Len returns the number of pending events.
func (q *Queue[P]) Len() int { return q.ringN + len(q.overflow) }

// Push enqueues an event. t must be at least the time of the last
// popped event (the engines' no-time-travel invariant).
func (q *Queue[P]) Push(t, seq int64, p P) {
	if (t>>q.shift)-(q.now>>q.shift) > q.mask {
		if len(q.overflow) == 0 || t < q.overflowMin {
			q.overflowMin = t
		}
		q.overflow = append(q.overflow, Event[P]{Time: t, Seq: seq, P: p})
		return
	}
	q.buckets[(t>>q.shift)&q.mask].insert(Event[P]{Time: t, Seq: seq, P: p})
	q.ringN++
}

// Pop removes and returns the pending event with the least (Time, Seq),
// or ok=false when the queue is empty.
func (q *Queue[P]) Pop() (e Event[P], ok bool) {
	if q.ringN == 0 && len(q.overflow) == 0 {
		return e, false
	}
	if len(q.overflow) > 0 {
		if q.ringN == 0 {
			q.now = q.overflowMin
		}
		if (q.overflowMin>>q.shift)-(q.now>>q.shift) <= q.mask {
			q.migrate()
		}
	}
	day := q.now >> q.shift
	for i := int64(0); i <= q.mask; i++ {
		b := &q.buckets[(day+i)&q.mask]
		if b.head == len(b.ev) {
			continue
		}
		e = b.ev[b.head]
		b.head++
		if b.head == len(b.ev) {
			b.ev = b.ev[:0]
			b.head = 0
		}
		q.ringN--
		q.now = e.Time
		return e, true
	}
	// Unreachable: ringN > 0 guarantees a non-empty bucket within one lap.
	panic("eventq: ring accounting corrupted")
}

// migrate moves overflow events that now fit under the ring horizon
// into their buckets and recomputes the overflow minimum.
func (q *Queue[P]) migrate() {
	day := q.now >> q.shift
	kept := q.overflow[:0]
	for _, e := range q.overflow {
		if (e.Time>>q.shift)-day > q.mask {
			if len(kept) == 0 || e.Time < q.overflowMin {
				q.overflowMin = e.Time
			}
			kept = append(kept, e)
			continue
		}
		q.buckets[(e.Time>>q.shift)&q.mask].insert(e)
		q.ringN++
	}
	q.overflow = kept
}
