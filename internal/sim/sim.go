// Package sim provides a minimal deterministic discrete-event simulation
// kernel shared by the DRAM, NMP and CPU timing models.
//
// Time is counted in memory-controller clock cycles. For the paper's
// configuration this is convenient: DDR4-3200 runs its command clock at
// 1600 MHz and the NMP processing elements run at 1.6 GHz (Table 2), so one
// simulator cycle is one PE cycle and one DRAM command slot (0.625 ns).
//
// The scheduler is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) with digits of digitBits bits, laid out like a hierarchical
// timing wheel (Varghese & Lauck, SOSP 1987). At clamps every event to the
// current time, so no event is ever scheduled before the last one popped,
// and that time — the clock — serves as the radix base. An event at t sits
// at level l = (bits.Len64(t^now)-1)/digitBits, the digit holding the
// highest bit where t differs from now, in bucket d = digit l of t. So:
//   - an event at level l agrees with the clock above digit l and is later
//     in digit l; every event in a lower level, or in a lower bucket of the
//     same level, is earlier than every event in a higher one;
//   - each level-0 bucket holds exactly one time, and the lowest one holds
//     the events due next;
//   - a bucket's placement depends only on (t, now), and moving the clock
//     within the lowest non-empty bucket leaves every other event in place.
//
// Pushing appends to the event's bucket and updates the bucket's minimum
// time. Popping takes the head of the lowest level-0 bucket, found through
// a per-level occupancy bitmap. When level 0 is empty, the lowest
// non-empty bucket above it is refilled: the clock moves to its minimum and
// its events move, in order, into the levels below, which are empty.
// Equal-time events therefore always share a bucket in the order they
// were scheduled: a refill carries them down in order, and a later push at
// the same time lands behind them. So ties fire first-in first-out by
// construction, and the pop order — and every simulation outcome — is the
// same total (time, arrival) order a comparison heap with a
// sequence-number tie-break would give. Most scheduling delays of the NMP
// model lie between 2^5 and 2^10 cycles, so with 6-bit digits an event
// lands in its final bucket at once or after one move (Probe.Moves counts
// them).
//
// Buckets are intrusive FIFO lists threaded through one slab of event
// slots, so the storage grows with the number of pending events, not with
// the number of buckets: a refill relinks slots and copies no event. Freed
// slots are reused before the slab grows. The bucket table and slab live
// in one struct taken from a package-level sync.Pool when the first event
// arrives in an empty Engine, and returned when Run or Reset leaves it
// empty. A drained Engine holds no queue storage, and concurrently stepped
// Engines share the warm slabs.
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

// digitBits is the radix digit width, chosen by measurement. On the
// benchmark's fleet-fairshare job, digits of 1, 4, 5 and 6 bits moved each
// event 4.68, 1.78, 1.36 and 1.04 times in refills, and 6 bits was no
// slower per step than 4 or 5. Six is the widest digit whose level
// bitmap is one uint64.
const (
	digitBits = 6
	digits    = 1 << digitBits
	levels    = (64 + digitBits - 1) / digitBits
)

// slot is one pending event in the slab; next links it to the following
// event of its bucket, or of the free list.
type slot struct {
	at   Cycle
	fn   func()
	next int32
}

// bucket is a FIFO list of slab slots. It is valid only while its
// occupancy bit is set; tail's next link is then unspecified.
type bucket struct {
	head, tail int32
	min        Cycle
}

// queue is the radix heap's storage.
type queue struct {
	occ  [levels]uint64 // bit d of occ[l]: bucket (l, d) is non-empty
	used uint32         // bit l: occ[l] != 0
	b    [levels][digits]bucket
	slab []slot
	free int32 // first free slab slot, -1 when every slot is in use
}

var queuePool = sync.Pool{New: func() any { return &queue{free: -1} }}

// link appends slot i, at time t, to its bucket relative to base.
func (q *queue) link(i int32, t, base Cycle) {
	l := uint(bits.Len64(uint64(t^base)|1)-1) / digitBits
	shift := digitBits * l % 64 // l < levels: the modulo only spares Go's wide-shift check
	d := uint64(t) >> shift % digits
	b := &q.b[l][d]
	if bit := uint64(1) << d; q.occ[l]&bit == 0 {
		q.occ[l] |= bit
		q.used |= 1 << l
		b.head, b.tail, b.min = i, i, t
		return
	}
	q.slab[b.tail].next = i
	b.tail = i
	if t < b.min {
		b.min = t
	}
}

// refill empties the lowest non-empty bucket, which lies above level 0,
// into the levels below it relative to its minimum, in order, and returns
// the number of events moved. Its minimum becomes the lowest level-0 time.
func (q *queue) refill() (moved int64) {
	l := bits.TrailingZeros32(q.used)
	d := bits.TrailingZeros64(q.occ[l])
	if q.occ[l] &^= 1 << d; q.occ[l] == 0 {
		q.used &^= 1 << l
	}
	b := q.b[l][d]
	for i := b.head; ; {
		s := &q.slab[i]
		next := s.next
		q.link(i, s.at, b.min)
		moved++
		if i == b.tail {
			return moved
		}
		i = next
	}
}

// Probe collects event-loop statistics when attached to an Engine. A nil
// probe (the default) disables collection; the hot paths then pay one
// predictable branch and zero allocations.
type Probe struct {
	// Dispatched counts events popped and executed by Run.
	Dispatched int64
	// MaxPending is the high-water mark of pending events.
	MaxPending int
	// Moves counts events relocated to a lower level by refills; an event
	// may move several times before it is due.
	Moves int64
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
	q := e.q
	clear(q.slab) // release closure references
	q.occ, q.used = [levels]uint64{}, 0
	e.n = 0
	e.release()
}

// release returns the queue to the pool once nothing is pending. Every
// slot is then free, so the slab restarts empty and fills in order.
func (e *Engine) release() {
	if e.n == 0 && e.q != nil {
		e.q.slab, e.q.free = e.q.slab[:0], -1
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
	i := q.free
	if i >= 0 {
		s := &q.slab[i]
		q.free = s.next
		s.at, s.fn = t, fn
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, slot{at: t, fn: fn})
	}
	q.link(i, t, e.now)
	e.n++
	if e.probe != nil && e.n > e.probe.MaxPending {
		e.probe.MaxPending = e.n
	}
}

// After schedules fn d cycles from now.
func (e *Engine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

// Run processes events until none remain, returning the final time. Each
// turn pops the head of the lowest level-0 bucket, after a refill if level
// 0 is empty, advances the clock to it, frees its slot and runs it.
func (e *Engine) Run() Cycle {
	for e.n > 0 {
		q := e.q
		if q.occ[0] == 0 {
			moved := q.refill()
			if e.probe != nil {
				e.probe.Moves += moved
			}
		}
		d := bits.TrailingZeros64(q.occ[0])
		b := &q.b[0][d]
		i := b.head
		s := &q.slab[i]
		if i == b.tail {
			if q.occ[0] &^= 1 << d; q.occ[0] == 0 {
				q.used &^= 1
			}
		} else {
			b.head = s.next
		}
		e.now = s.at
		fn := s.fn
		s.fn = nil // release the closure reference
		s.next, q.free = q.free, i
		e.n--
		if e.probe != nil {
			e.probe.Dispatched++
		}
		fn()
	}
	e.release()
	return e.now
}
