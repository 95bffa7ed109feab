package topo

import (
	"slices"
	"testing"

	"nmppak/internal/sim"
)

// refFlight is the reference for Flight: the closure-chain scheduler it
// replaced, where every hop of a message is a fresh closure. It is built
// fresh for every round, reading a Degraded network's slowdowns at
// construction and routing every message anew.
type refFlight struct {
	net  Network
	eng  *sim.Engine
	lat  sim.Cycle
	bpc  float64
	free []sim.Cycle
	slow []float64
}

func newRefFlight(net Network, eng *sim.Engine) *refFlight {
	f := &refFlight{
		net:  net,
		eng:  eng,
		lat:  net.LatencyCycles(),
		bpc:  net.BytesPerCycle(),
		free: make([]sim.Cycle, net.NumLinks()),
	}
	if d, ok := net.(*Degraded); ok {
		f.slow = d.slow
	}
	return f
}

func (f *refFlight) linkDur(l int, dur sim.Cycle) sim.Cycle {
	if f.slow == nil {
		return dur
	}
	if s := f.slow[l]; s != 1 {
		return sim.Cycle(float64(dur) * s)
	}
	return dur
}

func (f *refFlight) send(src, dst int, b int64, deliver func()) {
	path := f.net.AppendRoute(nil, src, dst)
	dur := sim.Cycle(float64(b)/f.bpc) + 1
	req := f.eng.Now()
	slot := max(req, f.free[path[0]])
	d0 := f.linkDur(path[0], dur)
	f.free[path[0]] = slot + d0
	f.hop(path, 1, slot+d0, dur, deliver)
}

func (f *refFlight) hop(path []int, h int, prevEnd, dur sim.Cycle, deliver func()) {
	if h == len(path) {
		f.eng.At(prevEnd, deliver)
		return
	}
	f.eng.At(prevEnd+f.lat, func() {
		l := path[h]
		req := f.eng.Now()
		slot := max(req, f.free[l])
		ld := f.linkDur(l, dur)
		f.free[l] = slot + ld
		f.hop(path, h+1, slot+ld, dur, deliver)
	})
}

// refExchange is the reference all-to-all exchange: the shifted issue
// order of Exchange on a fresh reference Flight.
func refExchange(net Network, bytes [][]int64) (ExchangeStats, []sim.Cycle) {
	var st ExchangeStats
	eng := &sim.Engine{}
	f := newRefFlight(net, eng)
	n := net.Nodes()
	for src := 0; src < n; src++ {
		for off := 1; off < n; off++ {
			dst := (src + off) % n
			if b := bytes[src][dst]; b > 0 {
				st.TotalBytes += b
				st.Messages++
				f.send(src, dst, b, func() { st.Cycles = max(st.Cycles, eng.Now()) })
			}
		}
	}
	eng.Run()
	return st, f.free
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzMsg is one message of a fuzzed round.
type fuzzMsg struct {
	src, dst int
	b        int64
	at       sim.Cycle
	reply    bool // the delivery sends the same bytes back
}

// FuzzFlightReuse checks one Flight, reused across rounds, against the
// closure-chain reference built fresh for every round. The input picks a
// topology of 2-16 nodes and 1-4 rounds. Each round is either an
// event-driven one, messages sent at staggered times where some
// deliveries send a reply (so a freed slab slot is reused inside its own
// delivery), or an all-to-all Exchange of the same messages. Between
// rounds the input applies Slow and CutRoute events to the Degraded
// network, then Verify; a disconnected network ends the case, as it ends
// a run. Every delivery time, by tag, every exchange statistic and every
// final link clock must match the reference.
func FuzzFlightReuse(f *testing.F) {
	f.Add([]byte{1, 6, 3, 4, 0, 1, 9, 3, 1, 2, 5, 7, 8, 2, 0, 0, 1, 0, 3, 4, 9, 9, 1})
	f.Add([]byte{0, 2, 2, 2, 0, 1, 200, 7, 0, 0, 1, 0, 50, 3, 1, 0, 0, 1, 4, 1, 0, 1, 255, 11, 2, 0})
	f.Add([]byte{2, 14, 4, 12, 2, 9, 17, 5, 40, 13, 3, 0, 77, 2, 9, 12, 1, 5, 7, 3, 3, 1, 1, 7, 2, 6, 2, 1, 1, 3, 0, 6, 11, 9, 8, 1, 0, 2, 3, 4, 5})
	f.Add([]byte{1, 14, 3, 20, 0, 3, 100, 4, 1, 1, 5, 2, 30, 4, 0, 2, 0, 5, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		var cfg Config
		switch r.next() % 3 {
		case 0:
			cfg = testLink(FullMesh)
		case 1:
			cfg = testLink(Torus2D)
		default:
			cfg = testLink(Dragonfly)
		}
		nodes := r.next()%15 + 2
		net, err := cfg.Build(nodes)
		if err != nil {
			t.Fatalf("auto-shaped %v rejected %d nodes: %v", cfg.Kind, nodes, err)
		}
		d := NewDegraded(net)
		fl := NewFlight(d)
		rounds := r.next()%4 + 1
		for round := 0; round < rounds; round++ {
			if round > 0 {
				for range r.next() % 3 {
					op, src, dst := r.next(), r.next()%nodes, r.next()%nodes
					if src == dst {
						dst = (src + 1) % nodes
					}
					if op%2 == 0 {
						_ = d.Slow(src, dst, float64(op/2%8+1)/8) // a refused degrade changes nothing
					} else if err := d.CutRoute(src, dst); err != nil {
						t.Fatal(err)
					}
				}
				if d.Verify(nil) != nil {
					return
				}
			}
			exchange := r.next()%2 == 1
			msgs := make([]fuzzMsg, r.next()%24+1)
			var at sim.Cycle
			for i := range msgs {
				m := &msgs[i]
				m.src, m.dst = r.next()%nodes, r.next()%nodes
				if m.src == m.dst {
					m.dst = (m.src + 1) % nodes
				}
				sz := r.next()
				m.b = int64(sz)<<(sz%12) + 1
				at += sim.Cycle(r.next() % 8 * 40)
				m.at, m.reply = at, sz%3 == 0
			}
			if exchange {
				bytes := mat(nodes)
				for _, m := range msgs {
					bytes[m.src][m.dst] += m.b
				}
				want, wantFree := refExchange(d, bytes)
				if got := fl.Exchange(bytes, nil); got != want {
					t.Fatalf("round %d: reused Flight exchange %+v, reference %+v", round, got, want)
				}
				if !slices.Equal(fl.free, wantFree) {
					t.Fatalf("round %d: exchange link clocks %v, reference %v", round, fl.free, wantFree)
				}
				continue
			}
			got, want := flightRound(fl, msgs), refRound(d, msgs)
			if !slices.Equal(got.delivered, want.delivered) {
				t.Fatalf("round %d: deliveries by tag %v, reference %v", round, got.delivered, want.delivered)
			}
			if !slices.Equal(got.free, want.free) {
				t.Fatalf("round %d: link clocks %v, reference %v", round, got.free, want.free)
			}
		}
	})
}

// roundOutcome is what a fuzzed round leaves behind: every message's
// delivery time, by tag (a reply's tag follows the originals), and the
// final link clocks.
type roundOutcome struct {
	delivered []sim.Cycle
	free      []sim.Cycle
}

// flightRound plays msgs on the reused Flight over a fresh engine.
func flightRound(fl *Flight, msgs []fuzzMsg) roundOutcome {
	eng := &sim.Engine{}
	fl.Reset(eng, nil)
	out := roundOutcome{delivered: make([]sim.Cycle, 2*len(msgs))}
	for i := range out.delivered {
		out.delivered[i] = -1
	}
	fl.OnDeliver(func(src, dst int, tag int32) {
		out.delivered[tag] = eng.Now()
		if i := int(tag); i < len(msgs) && msgs[i].reply {
			fl.Send(dst, src, msgs[i].b, int32(len(msgs)+i))
		}
	})
	for i, m := range msgs {
		eng.At(m.at, func() { fl.Send(m.src, m.dst, m.b, int32(i)) })
	}
	eng.Run()
	out.free = slices.Clone(fl.free)
	return out
}

// refRound plays msgs on a fresh reference Flight.
func refRound(net Network, msgs []fuzzMsg) roundOutcome {
	eng := &sim.Engine{}
	f := newRefFlight(net, eng)
	out := roundOutcome{delivered: make([]sim.Cycle, 2*len(msgs))}
	for i := range out.delivered {
		out.delivered[i] = -1
	}
	for i, m := range msgs {
		eng.At(m.at, func() {
			f.send(m.src, m.dst, m.b, func() {
				out.delivered[i] = eng.Now()
				if m.reply {
					f.send(m.dst, m.src, m.b, func() { out.delivered[len(msgs)+i] = eng.Now() })
				}
			})
		})
	}
	eng.Run()
	out.free = f.free
	return out
}
