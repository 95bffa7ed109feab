package sim

import (
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

// offset maps one choice byte to a scheduling offset. The top two bits pick
// the scale: past times (clamped to now) and ties, near, far, and up to
// ≈2^40 cycles ahead, where a dormant fault plan sits in the highest
// buckets.
func offset(c byte) Cycle {
	v := Cycle(c & 63)
	switch c >> 6 {
	case 0:
		return v - 32
	case 1:
		return v
	case 2:
		return v << 12
	default:
		return v<<34 | v
	}
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
				s.At(s.Now()+offset(next()), spawn())
			}
		}
	}
	for k := next()%16 + 1; k > 0; k-- {
		s.At(offset(next()), spawn())
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

// FuzzEventOrder drives Engine and refEngine with the same fuzzed offsets
// and fan-outs; their (id, time) logs must be equal.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 64, 200, 1, 2, 255, 70, 130, 5, 0})
	for seed := int64(0); seed < 4; seed++ {
		choices := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(choices)
		f.Add(choices)
	}
	f.Fuzz(func(t *testing.T, choices []byte) {
		checkDrive(t, choices)
	})
}
