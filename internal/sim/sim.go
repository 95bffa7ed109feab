// Package sim provides a minimal deterministic discrete-event simulation
// kernel shared by the DRAM, NMP and CPU timing models.
//
// Time is counted in memory-controller clock cycles. For the paper's
// configuration this is convenient: DDR4-3200 runs its command clock at
// 1600 MHz and the NMP processing elements run at 1.6 GHz (Table 2), so one
// simulator cycle is one PE cycle and one DRAM command slot (0.625 ns).
//
// The scheduler is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990). At clamps every event to the current time, so no event is
// ever scheduled before the last one popped, and that time — the clock —
// can serve as the radix base: an event at t sits in bucket
// bits.Len64(t^now), the position of the highest bit where t differs from
// now. Every event in a lower bucket is earlier than every event in a
// higher one, and bucket 0 holds exactly the events due now. Pushing is
// an append. Popping drains bucket 0 from its head; when it is empty, the
// smallest non-empty bucket is scanned for its minimum, the clock moves
// there and that bucket is redistributed, in order, into the lower ones.
// Equal-time events therefore always share a bucket in the order they were
// scheduled, so ties fire first-in first-out by construction and the pop
// order — and every simulation outcome — is the same total (time, arrival)
// order a comparison heap with a sequence-number tie-break would give.
//
// The buckets live in one struct taken from a package-level sync.Pool when
// the first event arrives in an empty Engine, and returned when Run or
// Reset leaves it empty. A drained Engine holds no queue
// storage, and concurrently stepped Engines share the warm buckets.
package sim

import (
	"math/bits"
	"sync"
)

// Cycle is a point in simulated time (1 cycle = 0.625 ns at 1.6 GHz).
type Cycle = int64

// CyclesPerSecond for the 1.6 GHz domain.
const CyclesPerSecond = 1_600_000_000

// Seconds converts a cycle count to seconds.
func Seconds(c Cycle) float64 { return float64(c) / CyclesPerSecond }

type event struct {
	at Cycle
	fn func()
}

// queue is the radix heap's storage, one bucket per bits.Len64 result:
// bucket i holds the events whose time first differs from the clock in bit
// i-1. Bucket 0 is consumed from head.
type queue struct {
	b    [65][]event
	head int
}

var queuePool = sync.Pool{New: func() any { return new(queue) }}

// front returns the earliest pending time and the bucket holding it. The
// queue must be non-empty; the clock does not move.
func (q *queue) front(now Cycle) (i int, at Cycle) {
	if len(q.b[0]) > 0 {
		return 0, now
	}
	i = 1
	for len(q.b[i]) == 0 {
		i++
	}
	at = q.b[i][0].at
	for _, ev := range q.b[i][1:] {
		at = min(at, ev.at)
	}
	return i, at
}

// refill moves bucket i, in order, into the buckets below it relative to
// the new base, its minimum. Bucket 0 and every bucket below i are empty.
func (q *queue) refill(i int, base Cycle) {
	src := q.b[i]
	for _, ev := range src {
		j := bits.Len64(uint64(ev.at ^ base))
		q.b[j] = append(q.b[j], ev)
	}
	clear(src) // release the closure references
	q.b[i] = src[:0]
}

// Probe collects event-loop statistics when attached to an Engine. A nil
// probe (the default) disables collection; the hot paths then pay one
// predictable branch and zero allocations.
type Probe struct {
	// Dispatched counts events popped and executed by Run.
	Dispatched int64
	// MaxPending is the high-water mark of pending events.
	MaxPending int
}

// Engine is a single-threaded event scheduler. The zero value is ready to
// use.
type Engine struct {
	now   Cycle // the radix base: no pending event is earlier
	n     int
	q     *queue // nil while no event is pending
	probe *Probe
}

// SetProbe attaches (or, with nil, detaches) an event-loop probe.
func (e *Engine) SetProbe(p *Probe) { e.probe = p }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Reset drops all pending events while keeping the current time, so one
// Engine can be reused across independent scheduling rounds.
func (e *Engine) Reset() {
	if e.q == nil {
		return
	}
	for i := range e.q.b {
		clear(e.q.b[i]) // release closure references
		e.q.b[i] = e.q.b[i][:0]
	}
	e.q.head = 0
	e.n = 0
	e.release()
}

// release returns the bucket storage to the pool once nothing is pending.
func (e *Engine) release() {
	if e.n == 0 && e.q != nil {
		queuePool.Put(e.q)
		e.q = nil
	}
}

// At schedules fn at absolute time t (clamped to now).
func (e *Engine) At(t Cycle, fn func()) {
	if t < e.now {
		t = e.now
	}
	q := e.q
	if q == nil {
		q = queuePool.Get().(*queue)
		e.q = q
	}
	i := bits.Len64(uint64(t ^ e.now))
	q.b[i] = append(q.b[i], event{at: t, fn: fn})
	e.n++
	if e.probe != nil && e.n > e.probe.MaxPending {
		e.probe.MaxPending = e.n
	}
}

// After schedules fn d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

// Run processes events until none remain, returning the final time.
func (e *Engine) Run() Cycle {
	for e.n > 0 {
		e.dispatch(e.pop(e.q.front(e.now)))
	}
	e.release()
	return e.now
}

// pop removes the earliest event, which front found in bucket i at time at,
// advances the clock to it and returns its callback.
func (e *Engine) pop(i int, at Cycle) func() {
	q := e.q
	if i > 0 {
		q.refill(i, at)
		e.now = at
	}
	ev := &q.b[0][q.head]
	fn := ev.fn
	ev.fn = nil // release the closure reference
	if q.head++; q.head == len(q.b[0]) {
		q.b[0] = q.b[0][:0]
		q.head = 0
	}
	e.n--
	return fn
}

func (e *Engine) dispatch(fn func()) {
	if e.probe != nil {
		e.probe.Dispatched++
	}
	fn()
}
