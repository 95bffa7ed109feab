package topo

import (
	"slices"

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
// LatencyCycles between consecutive links; it is delivered when the final
// link releases it. On a FullMesh this reproduces the pre-refactor
// egress/ingress port discipline cycle for cycle.
//
// A message is a record in the Flight's slab, not a chain of closures:
// its route offset, hop, duration, bytes and the caller's tag. Each slab
// slot carries one event handler, bound when the slot is created, that
// reserves the message's next link or delivers it; a delivered message's
// slot is reused by the next Send. Routes live in one flat link array,
// filled per node pair on first use. A Flight is reusable: the scaleout
// runtime builds one per run and Resets it before every exchange and
// every overlapped schedule segment, so a warm Flight sends, forwards and
// delivers without allocating.
type Flight struct {
	net Network
	// deg is net when it is a Degraded wrapper, and gen the generation of
	// its link state the slowdowns and routes were last read at.
	deg *Degraded
	gen uint64
	eng *sim.Engine
	// own is Exchange's timeline, restarted at cycle 0 by every call.
	own  sim.Engine
	n    int
	lat  sim.Cycle
	bpc  float64
	free []sim.Cycle // per-link busy-until
	// links holds every route filled so far back to back, and span[src*n+dst]
	// locates the src -> dst route in it (end 0: not routed yet). Routes
	// stay valid until a CutRoute changes them.
	links []int
	span  []routeSpan
	// slow holds per-link occupancy multipliers when the network is a
	// Degraded wrapper with degraded links; nil (every healthy network,
	// and a Degraded one nothing has happened to yet) keeps the hot path
	// a single branch.
	slow []float64
	pr   *Probe
	// msgs is the slab of messages; idle is its first free slot (-1: none).
	msgs []msg
	idle int32
	// deliver is the handler the current reset's deliveries call (nil:
	// none), last the latest delivery time since the reset.
	deliver func(src, dst int, tag int32)
	last    sim.Cycle
}

// routeSpan locates one pair's route in Flight.links: [off, end).
type routeSpan struct{ off, end int32 }

// msg is one message in flight, or a free slab slot.
type msg struct {
	pos, end int32     // the next route link to reserve in links, route end
	dur      sim.Cycle // per-link store-and-forward occupancy
	b        int64
	src, dst int32
	tag      int32
	next     int32  // the next free slot, while this one is free
	fire     func() // the slot's event handler (Flight.fire), bound once
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

// NewFlight prepares a Flight over net. Reset binds it to an engine
// before its first Send; Exchange runs on its own.
func NewFlight(net Network) *Flight {
	n := net.Nodes()
	f := &Flight{
		net:  net,
		n:    n,
		lat:  net.LatencyCycles(),
		bpc:  net.BytesPerCycle(),
		free: make([]sim.Cycle, net.NumLinks()),
		span: make([]routeSpan, n*n),
		idle: -1,
	}
	if d, ok := net.(*Degraded); ok {
		f.deg, f.gen, f.slow = d, d.gen, d.slow
	}
	return f
}

// Network returns the network the Flight routes over.
func (f *Flight) Network() Network { return f.net }

// Reset starts a new scheduling round on eng with link-occupancy probe pr
// (nil: unrecorded): every link is idle and no delivery handler is set.
// The previous round's engine must have run dry, so that every slab slot
// is free. A Degraded network's link state is read here, so the round
// observes every Slow and CutRoute made before it; the routes are
// refilled only if a CutRoute has changed them since the last reset.
func (f *Flight) Reset(eng *sim.Engine, pr *Probe) {
	f.eng, f.pr = eng, pr
	clear(f.free)
	f.deliver, f.last = nil, 0
	if d := f.deg; d != nil && d.gen != f.gen {
		f.slow = d.slow
		if d.cutGen > f.gen {
			f.links = f.links[:0]
			clear(f.span)
		}
		f.gen = d.gen
	}
}

// OnDeliver sets the handler every delivery of the current round calls,
// with the message's endpoints and the tag it was sent with.
func (f *Flight) OnDeliver(h func(src, dst int, tag int32)) { f.deliver = h }

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

// route returns where the minimal src -> dst route lies in f.links,
// routing the pair on first use.
func (f *Flight) route(src, dst int) (off, end int32) {
	s := &f.span[src*f.n+dst]
	if s.end == 0 {
		s.off = int32(len(f.links))
		f.links = f.net.AppendRoute(f.links, src, dst)
		s.end = int32(len(f.links))
	}
	return s.off, s.end
}

// Dur is the per-link store-and-forward occupancy of a b-byte message.
func (f *Flight) Dur(b int64) sim.Cycle {
	return sim.Cycle(float64(b)/f.bpc) + 1
}

// Send routes one b-byte message from src to dst; its delivery calls the
// round's handler with tag. Messages with src == dst or b <= 0 are the
// caller's responsibility to skip.
func (f *Flight) Send(src, dst int, b int64, tag int32) {
	off, end := f.route(src, dst)
	i := f.idle
	if i >= 0 {
		f.idle = f.msgs[i].next
	} else {
		i = int32(len(f.msgs))
		f.msgs = append(f.msgs, msg{fire: f.handler(i)})
	}
	f.msgs[i] = msg{pos: off, end: end, dur: f.Dur(b), b: b, src: int32(src), dst: int32(dst), tag: tag, fire: f.msgs[i].fire}
	f.advance(i)
}

// handler binds slot i's event handler; it is made once per slot, when
// the slab grows.
func (f *Flight) handler(i int32) func() { return func() { f.fire(i) } }

// advance reserves message i's next route link at the current time, then
// schedules the slot's handler for what follows the link's release: the
// next reservation after the inter-link latency, or the delivery.
func (f *Flight) advance(i int32) {
	m := &f.msgs[i]
	l := f.links[m.pos]
	m.pos++
	req := f.eng.Now()
	slot := max(req, f.free[l])
	end := slot + f.linkDur(l, m.dur)
	f.free[l] = end
	if f.pr != nil {
		f.pr.record(l, slot, end, m.b, req)
	}
	if m.pos < m.end {
		end += f.lat
	}
	f.eng.At(end, m.fire)
}

// fire is message i's event: it reserves the next link, or, past the last
// one, frees the slot and delivers.
func (f *Flight) fire(i int32) {
	m := &f.msgs[i]
	if m.pos < m.end {
		f.advance(i)
		return
	}
	src, dst, tag := int(m.src), int(m.dst), m.tag
	m.next, f.idle = f.idle, i
	f.last = max(f.last, f.eng.Now())
	if f.deliver != nil {
		f.deliver(src, dst, tag)
	}
}

// ExchangeStats summarizes one all-to-all exchange.
type ExchangeStats struct {
	Cycles     sim.Cycle // completion time of the whole exchange
	TotalBytes int64     // bytes crossing the interconnect
	Messages   int64
}

// Exchange runs an all-to-all personalized exchange of bytes[src][dst]
// over the network on a fresh timeline and returns its completion time;
// when pr is non-nil every per-link reservation is mirrored onto
// pr.Links, shifted by pr.Offset into global time. Senders issue their
// messages in the classic shifted schedule (node s sends to s+1, s+2, ...
// mod n) so that early rounds do not all target the same receiver;
// contention beyond the first link resolves in arrival order on the event
// kernel, which keeps the result deterministic. Diagonal entries (local
// data) cost nothing. Exchange resets the Flight.
func (f *Flight) Exchange(bytes [][]int64, pr *Probe) ExchangeStats {
	var st ExchangeStats
	n := f.n
	if n <= 1 {
		return st
	}
	f.own = sim.Engine{}
	f.Reset(&f.own, pr)
	// Every message is in flight before the engine runs, so the slab needs
	// a slot for each: grow it once, not by append doubling.
	msgs := 0
	for src, row := range bytes[:n] {
		for dst, b := range row[:n] {
			if b > 0 && dst != src {
				msgs++
			}
		}
	}
	f.msgs = slices.Grow(f.msgs, max(msgs-len(f.msgs), 0))
	for src := 0; src < n; src++ {
		for off := 1; off < n; off++ {
			dst := (src + off) % n
			b := bytes[src][dst]
			if b <= 0 {
				continue
			}
			st.TotalBytes += b
			st.Messages++
			f.Send(src, dst, b, 0)
		}
	}
	f.own.Run()
	st.Cycles = f.last
	return st
}

// Exchange prices one all-to-all exchange of bytes[src][dst] over net on
// a Flight of its own (see Flight.Exchange).
func Exchange(net Network, bytes [][]int64) ExchangeStats {
	return NewFlight(net).Exchange(bytes, nil)
}
