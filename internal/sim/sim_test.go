package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // FIFO at equal time
	end := e.Run()
	if end != 10 {
		t.Fatalf("end = %d", end)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits []Cycle
	e.At(1, func() {
		hits = append(hits, e.Now())
		e.After(4, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var e Engine
	ran := false
	e.At(100, func() {
		e.At(50, func() { // in the past: clamp to now
			if e.Now() != 100 {
				t.Errorf("clamped event at %d", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("clamped event never ran")
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(CyclesPerSecond) != 1.0 {
		t.Fatal("1.6e9 cycles must be 1 second")
	}
}

func TestPending(t *testing.T) {
	var e Engine
	e.At(1, func() {})
	if e.n != 1 {
		t.Fatal("pending != 1")
	}
	e.Run()
	if e.n != 0 {
		t.Fatal("pending after run")
	}
}

func TestReset(t *testing.T) {
	var e Engine
	e.At(3, func() { t.Error("dropped event ran") })
	e.Reset()
	if e.n != 0 {
		t.Fatal("pending after reset")
	}
	ran := false
	e.At(7, func() { ran = true })
	if end := e.Run(); end != 7 || !ran {
		t.Fatalf("end = %d, ran = %v", end, ran)
	}
}

// refEvent carries the explicit FIFO tie-break the radix heap gets by
// construction.
type refEvent struct {
	at  Cycle
	seq int64
	fn  func()
}

// refEngine is a straightforward reference scheduler — a flat list scanned
// for the (time, seq) minimum — replicating the semantics of the original
// container/heap implementation. Engine must fire events in exactly this
// order.
type refEngine struct {
	now Cycle
	seq int64
	evs []refEvent
}

func (r *refEngine) Now() Cycle { return r.now }

func (r *refEngine) At(t Cycle, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) After(d Cycle, fn func()) { r.At(r.now+d, fn) }

// min returns the index of the earliest event; evs must be non-empty.
func (r *refEngine) min() int {
	m := 0
	for i, ev := range r.evs {
		if ev.at < r.evs[m].at || (ev.at == r.evs[m].at && ev.seq < r.evs[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refEngine) Run() Cycle {
	for len(r.evs) > 0 {
		m := r.min()
		ev := r.evs[m]
		r.evs = append(r.evs[:m], r.evs[m+1:]...)
		r.now = ev.at
		ev.fn()
	}
	return r.now
}

// scheduler is the engine surface the equivalence scenarios drive.
type scheduler interface {
	Now() Cycle
	At(Cycle, func())
	After(Cycle, func())
	Run() Cycle
}

// runScenario drives a deterministic pseudo-random self-rescheduling event
// population and records (id, firing time) pairs, including FIFO ties and
// past-time clamps.
func runScenario(s scheduler, seed int64) []([2]int64) {
	rng := rand.New(rand.NewSource(seed))
	var log []([2]int64)
	id := int64(0)
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		me := id
		id++
		return func() {
			log = append(log, [2]int64{me, s.Now()})
			if depth >= 6 {
				return
			}
			kids := rng.Intn(3)
			for c := 0; c < kids; c++ {
				// Mix of future offsets, ties and past times (clamped).
				off := Cycle(rng.Intn(9)) - 2
				s.At(s.Now()+off, spawn(depth+1))
			}
		}
	}
	for i := 0; i < 24; i++ {
		s.At(Cycle(rng.Intn(11)), spawn(0))
	}
	s.Run()
	return log
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		got := runScenario(&Engine{}, seed)
		want := runScenario(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %v, reference %v", seed, i, got[i], want[i])
			}
		}
	}
}

// when maps choice bytes to an event time relative to now. The top two
// bits of the first byte pick the kind:
//   - past times (clamped to now) and ties;
//   - near offsets, within one 6-bit digit;
//   - a digit boundary: 2^k-1, 2^k or 2^k+1 ahead, with k from the byte
//     and the side from a second byte; k = 63 picks an absolute time
//     within 255 cycles of MaxInt64, so far-future events pushed at
//     different clocks share a time;
//   - up to ≈2^40 cycles ahead, where a dormant fault plan sits in the
//     highest levels.
//
// Sums saturate at MaxInt64.
func when(now Cycle, next func() byte) Cycle {
	c := next()
	v := Cycle(c & 63)
	switch c >> 6 {
	case 0:
		return now + v - 32
	case 1:
		return addSat(now, v)
	case 2:
		if v == 63 {
			return math.MaxInt64 - Cycle(next())
		}
		return addSat(now, 1<<v+Cycle(next()%3)-1)
	default:
		return addSat(now, v<<34|v)
	}
}

// addSat returns now+d for d >= 0, or MaxInt64 if that overflows.
func addSat(now, d Cycle) Cycle {
	if now > math.MaxInt64-d {
		return math.MaxInt64
	}
	return now + d
}

// drive runs a self-rescheduling event population on s, drawing every
// choice — how many events to seed, each event's fan-out and each child's
// offset — from choices (zero once exhausted). The log holds (id, time)
// per firing.
func drive(s scheduler, choices []byte, maxEvents int64) [][2]int64 {
	pos := 0
	next := func() byte {
		if pos >= len(choices) {
			return 0
		}
		pos++
		return choices[pos-1]
	}
	var log [][2]int64
	id := int64(0)
	var spawn func() func()
	spawn = func() func() {
		me := id
		id++
		return func() {
			log = append(log, [2]int64{me, s.Now()})
			for k := next() % 3; k > 0 && id < maxEvents; k-- {
				s.At(when(s.Now(), next), spawn())
			}
		}
	}
	for k := next()%16 + 1; k > 0; k-- {
		s.At(when(0, next), spawn())
	}
	s.Run()
	return log
}

// checkDrive runs one choice stream on Engine and on refEngine and fails on
// the first difference.
func checkDrive(t *testing.T, choices []byte) {
	t.Helper()
	var e Engine
	got := drive(&e, choices, 2000)
	want := drive(&refEngine{}, choices, 2000)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("logs differ at entry %d of %d/%d: got %v, reference %v", i, len(got), len(want),
			got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
	}
	if e.q != nil {
		t.Fatal("drained engine still holds its buckets")
	}
}

// TestConcurrentEnginesSharePool runs engines on several goroutines at once,
// as epoch pre-stepping runs node engines, so their buckets pass between
// goroutines through the pool; every engine must still fire in reference
// order. Run it under -race.
func TestConcurrentEnginesSharePool(t *testing.T) {
	const workers = 4
	var streams [workers][]byte
	var want [workers][][2]int64
	for w := range workers {
		streams[w] = make([]byte, 2048)
		rand.New(rand.NewSource(int64(100 + w))).Read(streams[w])
		want[w] = drive(&refEngine{}, streams[w], 1000)
	}
	var got [workers][][2]int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got[w] = drive(&Engine{}, streams[w], 1000)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if !slices.Equal(got[w], want[w]) {
			t.Errorf("worker %d: log differs from the reference", w)
		}
	}
}

// TestFarFutureEvents pins a dormant event in the top buckets: it must stay
// pending while nearer events fire and schedule more, and fire last,
// after a past-time event clamped to its own time.
func TestFarFutureEvents(t *testing.T) {
	const far = Cycle(1) << 40
	var e Engine
	var fired []Cycle
	rec := func() { fired = append(fired, e.Now()) }
	e.At(far, func() {
		rec()
		e.At(0, rec) // clamped to far
	})
	e.At(far+1, rec)
	e.At(7, func() {
		rec()
		e.At(500, rec) // between now and the dormant event
	})
	e.Run()
	want := []Cycle{7, 500, far, far, far + 1}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestDrainedEngineHoldsNoStorage checks that the buckets go back to the
// pool whenever the queue drains, so quiescent engines hold nothing.
func TestDrainedEngineHoldsNoStorage(t *testing.T) {
	var e Engine
	e.At(3, func() {})
	e.At(9, func() {})
	if e.q == nil {
		t.Fatal("pending engine has no buckets")
	}
	e.At(5, func() {
		if e.q == nil {
			t.Fatal("Run released buckets with an event pending")
		}
	})
	e.Run()
	if e.q != nil {
		t.Fatal("Run kept buckets after draining")
	}
	e.At(11, func() {})
	e.Reset()
	if e.q != nil {
		t.Fatal("Reset kept buckets")
	}
	e.Run()
	if e.q != nil || e.Now() != 9 {
		t.Fatalf("Run on an empty engine: q=%v now=%d", e.q, e.Now())
	}
}

// Choice-byte builders for FuzzEventOrder's seeds (see when and drive).
func ahead(k, side int) []byte { return []byte{0x80 | byte(k), byte(side + 1)} } // 2^k+side ahead
func farEnd(back byte) []byte  { return []byte{0xbf, back} }                     // MaxInt64-back
func near(v byte) []byte       { return []byte{0x40 | v} }                       // v ahead
func past(v byte) []byte       { return []byte{32 - v} }                         // v behind, clamped

// seed concatenates choice-byte pieces into one fuzz input.
func seed(parts ...[]byte) []byte { return slices.Concat(parts...) }

// FuzzEventOrder drives Engine and refEngine with the same fuzzed offsets
// and fan-outs; their (id, time) logs must be equal. The seeds cross
// every digit boundary, clamp past times, split equal-time bursts across
// refills and schedule up to MaxInt64.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 64, 200, 1, 2, 255, 70, 130, 5, 0})
	for seed := int64(0); seed < 4; seed++ {
		choices := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(choices)
		f.Add(choices)
	}
	// Delays 2^k-1, 2^k and 2^k+1 at each digit boundary k, from the clock
	// at 0 and again from the clock each of them sets.
	for k := digitBits; k < 63; k += digitBits {
		for _, fan := range []byte{0, 2} {
			f.Add(seed([]byte{2}, ahead(k, -1), ahead(k, 0), ahead(k, 1),
				[]byte{fan}, ahead(k, -1), ahead(k, 1), []byte{fan}, ahead(k, 0), near(1),
				[]byte{2}, ahead(k-1, 1), ahead(k+1, -1)))
		}
	}
	// Past times clamp to the clock and tie with events due now.
	f.Add(seed([]byte{2}, near(7), past(3), near(0),
		[]byte{2}, past(32), past(1), []byte{2}, past(0), near(0), []byte{1}, past(5)))
	// Equal-time bursts split across refills: MaxInt64 and MaxInt64-1 are
	// scheduled from several clocks, moved down when the clock reaches
	// them, and scheduled again, directly and by clamping, once it has.
	f.Add(seed([]byte{3}, farEnd(0), near(5), farEnd(1),
		[]byte{2}, farEnd(0), ahead(60, 0), []byte{2}, farEnd(1), farEnd(0),
		[]byte{2}, farEnd(0), past(9), []byte{2}, farEnd(1), farEnd(0),
		[]byte{2}, past(1), farEnd(0), []byte{2}, farEnd(0), near(0)))
	// A burst at one time reached through a refill of a high level, with
	// more of the same time pushed after the refill.
	f.Add(seed([]byte{4}, ahead(12, 0), ahead(12, 0), near(1), ahead(12, 0),
		[]byte{2}, near(63), ahead(12, 0), []byte{2}, ahead(12, 0), near(0),
		[]byte{2}, past(0), past(0), []byte{1}, near(0)))
	f.Fuzz(func(t *testing.T, choices []byte) {
		checkDrive(t, choices)
	})
}

// TestMovesPerEvent pins the refill cost of the NMP model's delay mix:
// events scheduled 2^5 to 2^10 cycles ahead move at most twice on
// average before they fire, and a detached probe counts nothing.
func TestMovesPerEvent(t *testing.T) {
	var e Engine
	var p Probe
	e.SetProbe(&p)
	rng := rand.New(rand.NewSource(1))
	n := 0
	var spawn func()
	spawn = func() {
		if n++; n >= 100_000 {
			return
		}
		for range 1 + n%2 {
			e.After(Cycle(32+rng.Intn(1024-32+1)), spawn)
		}
	}
	for range 64 {
		e.At(Cycle(rng.Intn(1024)), spawn)
	}
	e.Run()
	if p.Dispatched == 0 || p.Moves == 0 {
		t.Fatalf("probe counted %d events and %d moves", p.Dispatched, p.Moves)
	}
	if per := float64(p.Moves) / float64(p.Dispatched); per > 2 {
		t.Fatalf("%.3f moves per event (%d moves, %d events), want at most 2", per, p.Moves, p.Dispatched)
	}
	t.Logf("%.3f moves per event over %d events", float64(p.Moves)/float64(p.Dispatched), p.Dispatched)
	e.SetProbe(nil)
	before := p
	e.At(e.Now()+1000, func() {})
	e.At(e.Now()+5000, func() {})
	e.Run()
	if p != before {
		t.Fatalf("detached probe changed: %+v, was %+v", p, before)
	}
}
