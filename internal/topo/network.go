package topo

import (
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
)

// Network is a routed interconnect instance bound to a machine size: a
// static set of serializing directed links (identified by dense integer
// IDs) plus a deterministic minimal-routing function. Implementations are
// immutable; all scheduling state lives in a Flight.
type Network interface {
	// Name identifies the topology and shape in reports ("fullmesh",
	// "torus4x2", "dragonfly2x4").
	Name() string
	// Nodes is the machine size the network was built for.
	Nodes() int
	// NumLinks is the number of distinct contended links.
	NumLinks() int
	// LatencyCycles is the latency paid between consecutive route links.
	LatencyCycles() sim.Cycle
	// BytesPerCycle is the per-link bandwidth.
	BytesPerCycle() float64
	// AppendRoute appends the ordered link IDs a src -> dst message
	// traverses. Routes are minimal and deterministic; src == dst is not
	// routed (local data never enters the network).
	AppendRoute(path []int, src, dst int) []int
	// BarrierCycles is the cost of a full barrier: a reduce-then-broadcast
	// tree of ceil(log2 n) message hops each way, each hop paying the
	// topology's worst-case unloaded route latency. A single node
	// synchronizes for free.
	BarrierCycles() sim.Cycle
}

// linkSpec carries the shared per-link parameters and implements the
// trivial accessors of Network.
type linkSpec struct {
	n     int
	lat   sim.Cycle
	bpc   float64
	links int
}

func (l *linkSpec) Nodes() int               { return l.n }
func (l *linkSpec) NumLinks() int            { return l.links }
func (l *linkSpec) LatencyCycles() sim.Cycle { return l.lat }
func (l *linkSpec) BytesPerCycle() float64   { return l.bpc }

// treeBarrier prices a log-tree barrier whose every hop crosses routes
// with hopLat latency transitions.
func (l *linkSpec) treeBarrier(hopLat int) sim.Cycle {
	if l.n <= 1 {
		return 0
	}
	return 2 * sim.Cycle(ceilLog2(l.n)) * sim.Cycle(hopLat) * l.lat
}

// Flight schedules messages through a Network hop by hop on a sim.Engine,
// tracking per-link busy-until times across every message it sends. The
// first link of a route is reserved inline at Send time (senders issue
// their messages serially, so issue order resolves first-link contention
// deterministically); each subsequent link is reserved by an arrival
// event, so downstream contention resolves in deterministic
// (time, issue-order) arrival order. A message holds each link for
// bytes/BytesPerCycle (+1 launch) cycles, store-and-forward, and pays
// LatencyCycles between consecutive links; deliver fires when the final
// link releases it. On a FullMesh this reproduces the pre-refactor
// egress/ingress port discipline cycle for cycle.
type Flight struct {
	net  Network
	eng  *sim.Engine
	n    int
	lat  sim.Cycle
	bpc  float64
	free []sim.Cycle // per-link busy-until
	// routes lazily caches the minimal route per ordered node pair
	// (routes are static for the network's lifetime); in-flight message
	// closures borrow the cached slices.
	routes [][]int
	// slow holds per-link occupancy multipliers when the network is a
	// Degraded wrapper with degraded links; nil (every healthy network,
	// and a Degraded one nothing has happened to yet) keeps the hot path
	// a single branch.
	slow []float64
	pr   *Probe
}

// Probe mirrors every link reservation a Flight makes onto telemetry
// tracks. Links is indexed by dense link ID; Offset shifts the Flight's
// local engine clock into global time at record time, so spans land in
// the run's timeline directly.
type Probe struct {
	Links  []*telemetry.Track
	Offset sim.Cycle
}

// record emits one occupancy window: the reserved [start, end) slot on
// the link, the message bytes, and the cycle the reservation was asked
// for (End - Arg2 is the link's booked-ahead backlog at that moment).
func (p *Probe) record(link int, start, end sim.Cycle, b int64, req sim.Cycle) {
	p.Links[link].Add(telemetry.SpanLink, p.Offset+start, p.Offset+end, b, int64(p.Offset+req))
}

// SetProbe attaches (or, with nil, detaches) a link-occupancy probe.
func (f *Flight) SetProbe(p *Probe) { f.pr = p }

// NewFlight prepares a Flight over net scheduling on eng. A Degraded
// network's per-link slowdowns are captured here, so the Flight must be
// created after the degradation events it should observe (the scaleout
// runtime builds a fresh Flight per exchange or schedule segment).
func NewFlight(net Network, eng *sim.Engine) *Flight {
	n := net.Nodes()
	f := &Flight{
		net:    net,
		eng:    eng,
		n:      n,
		lat:    net.LatencyCycles(),
		bpc:    net.BytesPerCycle(),
		free:   make([]sim.Cycle, net.NumLinks()),
		routes: make([][]int, n*n),
	}
	if d, ok := net.(*Degraded); ok {
		f.slow = d.slowdowns()
	}
	return f
}

// linkDur scales the base store-and-forward occupancy by link l's
// degradation multiplier; the nil fast path keeps healthy networks
// cycle-exact and branch-cheap.
func (f *Flight) linkDur(l int, dur sim.Cycle) sim.Cycle {
	if f.slow == nil {
		return dur
	}
	if s := f.slow[l]; s != 1 {
		return sim.Cycle(float64(dur) * s)
	}
	return dur
}

// route returns the (cached) minimal route from src to dst.
func (f *Flight) route(src, dst int) []int {
	i := src*f.n + dst
	r := f.routes[i]
	if r == nil {
		r = f.net.AppendRoute(make([]int, 0, 8), src, dst)
		f.routes[i] = r
	}
	return r
}

// Dur is the per-link store-and-forward occupancy of a b-byte message.
func (f *Flight) Dur(b int64) sim.Cycle {
	return sim.Cycle(float64(b)/f.bpc) + 1
}

// Send routes one b-byte message from src to dst, calling deliver when
// the final link completes. Messages with src == dst or b <= 0 are the
// caller's responsibility to skip.
func (f *Flight) Send(src, dst int, b int64, deliver func()) {
	path := f.route(src, dst)
	dur := f.Dur(b)
	req := f.eng.Now()
	slot := f.free[path[0]]
	if req > slot {
		slot = req
	}
	d0 := f.linkDur(path[0], dur)
	f.free[path[0]] = slot + d0
	if f.pr != nil {
		f.pr.record(path[0], slot, slot+d0, b, req)
	}
	f.hop(path, 1, slot+d0, dur, b, deliver)
}

// hop advances the message past link h-1 (released at prevEnd): it either
// delivers, or schedules the reservation of link h after the inter-link
// latency.
func (f *Flight) hop(path []int, h int, prevEnd, dur sim.Cycle, b int64, deliver func()) {
	if h == len(path) {
		f.eng.At(prevEnd, deliver)
		return
	}
	f.eng.At(prevEnd+f.lat, func() {
		l := path[h]
		req := f.eng.Now()
		slot := f.free[l]
		if req > slot {
			slot = req
		}
		ld := f.linkDur(l, dur)
		f.free[l] = slot + ld
		if f.pr != nil {
			f.pr.record(l, slot, slot+ld, b, req)
		}
		f.hop(path, h+1, slot+ld, dur, b, deliver)
	})
}

// ExchangeStats summarizes one all-to-all exchange.
type ExchangeStats struct {
	Cycles     sim.Cycle // completion time of the whole exchange
	TotalBytes int64     // bytes crossing the interconnect
	Messages   int64
}

// Exchange runs an all-to-all personalized exchange of bytes[src][dst]
// over the network and returns its completion time. Senders issue their
// messages in the classic shifted schedule (node s sends to s+1, s+2, ...
// mod n) so that early rounds do not all target the same receiver;
// contention beyond the first link resolves in arrival order on the event
// kernel, which keeps the result deterministic. Diagonal entries (local
// data) cost nothing.
func Exchange(net Network, bytes [][]int64) ExchangeStats {
	return ExchangeProbed(net, bytes, nil)
}

// ExchangeProbed is Exchange with link-occupancy recording: when pr is
// non-nil every per-link reservation of the exchange is mirrored onto
// pr.Links, shifted by pr.Offset into global time. The returned stats are
// identical to Exchange's.
func ExchangeProbed(net Network, bytes [][]int64, pr *Probe) ExchangeStats {
	var st ExchangeStats
	n := net.Nodes()
	if n <= 1 {
		return st
	}
	// A fresh engine needs no pre-sizing: its event buckets come warm from
	// the sim package's pool and go back when Run drains them.
	eng := &sim.Engine{}
	f := NewFlight(net, eng)
	f.SetProbe(pr)
	finish := sim.Cycle(0)
	for src := 0; src < n; src++ {
		for off := 1; off < n; off++ {
			dst := (src + off) % n
			b := bytes[src][dst]
			if b <= 0 {
				continue
			}
			st.TotalBytes += b
			st.Messages++
			f.Send(src, dst, b, func() {
				if now := eng.Now(); now > finish {
					finish = now
				}
			})
		}
	}
	eng.Run()
	st.Cycles = finish
	return st
}
