// Package telemetry is the cycle-domain instrumentation layer of the
// simulator: a recorded stream of spans — time windows on named resource
// tracks (node engines, interconnect links, DRAM channel data buses, the
// runtime's phase schedule) — plus the dependency records that let a
// critical-path pass explain where the end-to-end cycles went.
//
// The design contract is zero overhead when disabled: producers hold a
// nil probe/track pointer on their hot paths and recording sites compile
// to a single predictable branch, so a telemetry-disabled run is
// cycle-exact and allocation-identical with the uninstrumented code (the
// internal/sim and internal/kmer AllocsPerRun tests pin this).
//
// Collection is deterministic: every track is written by exactly one
// goroutine at a time (per-node tracks by that node's engine step, link
// and runtime tracks by the single-threaded event loop), tracks are
// created in a fixed order before any parallel section, and the exporters
// iterate in creation/append order with integer formatting only — the
// same run always produces a byte-identical trace.
package telemetry

import "nmppak/internal/sim"

// TrackKind classifies the resource a track models.
type TrackKind uint8

const (
	// TrackRuntime is the runtime's phase schedule (one per run).
	TrackRuntime TrackKind = iota
	// TrackNode is one node's engine (compute/stall/idle windows).
	TrackNode
	// TrackLink is one interconnect link (occupancy reservations).
	TrackLink
	// TrackDRAM is one DRAM channel's data bus (burst-train windows).
	TrackDRAM
	// TrackFleet is a multi-tenant fleet resource: the scheduler's
	// per-fleet-node possession timeline or one tenant's lifecycle track
	// (see internal/tenancy). Excluded from the single-run utilization
	// aggregates — fleet accounting is the scheduler's own.
	TrackFleet
)

// String names the kind (used as the Chrome-trace process name).
func (k TrackKind) String() string {
	switch k {
	case TrackRuntime:
		return "runtime"
	case TrackNode:
		return "nodes"
	case TrackLink:
		return "links"
	case TrackDRAM:
		return "dram"
	case TrackFleet:
		return "fleet"
	}
	return "unknown"
}

// SpanKind classifies one recorded time window. The Arg1/Arg2 meaning is
// per kind (documented on each constant).
type SpanKind uint8

const (
	// SpanIter is one node-engine compaction iteration.
	// Arg1 = iteration index, Arg2 = DRAM data-bus busy cycles summed over
	// the node's channels during the iteration.
	SpanIter SpanKind = iota
	// SpanIdle is time a node spends with nothing to do (waiting on
	// stragglers, or drained after its last iteration). Arg1 = iteration.
	SpanIdle
	// SpanSyncBarrier is the NMP runtime's per-iteration lockstep sync
	// (exists on a single node too, so it is not communication).
	// Arg1 = iteration.
	SpanSyncBarrier
	// SpanLinkBarrier is the interconnect share of a barrier (the
	// log-tree reduce/broadcast). Arg1 = iteration. Counted as comm.
	SpanLinkBarrier
	// SpanExchangeWait is a node (or the runtime) parked while a bulk
	// all-to-all exchange runs. Arg1 = iteration (-1 for the software
	// phases). Counted as comm.
	SpanExchangeWait
	// SpanDeliveryWait is overlapped-mode time a node waits for halo
	// deliveries beyond its own compute-side readiness. Arg1 = iteration.
	SpanDeliveryWait
	// SpanCompute is a runtime-track compute segment (slowest-node
	// compute of a phase or superstep). Arg1 = iteration (-1 software).
	SpanCompute
	// SpanMigration is a rebalance migration exchange (MacroNode bytes
	// moving to new owners). Arg1 = iteration, Arg2 = bytes. Counted as
	// comm.
	SpanMigration
	// SpanLink is one link occupancy reservation.
	// Arg1 = message bytes, Arg2 = reservation time (the cycle the
	// message asked for the link; End - Arg2 is the booked-ahead backlog).
	SpanLink
	// SpanBus is one DRAM burst train's data-bus reservation window.
	// Arg1 = bytes moved, Arg2 = 1 for writes, 0 for reads.
	SpanBus
	// SpanCheckpoint is an instant marker: a checkpoint blob was captured
	// at this point. Arg1 = resume iteration.
	SpanCheckpoint
	// SpanFault is an instant marker: a fault event was injected.
	// Arg1 = affected node (the dying node, or the Src of a link event),
	// Arg2 = fault.Kind.
	SpanFault
	// SpanDetect is the failure-detection window charged before the
	// runtime acts on a node loss (heartbeat timeout, membership
	// agreement). Arg1 = the iteration boundary where the loss surfaced,
	// Arg2 = the dead node.
	SpanDetect
	// SpanRestore is the survivors reloading the recovery checkpoint.
	// Arg1 = resume iteration, Arg2 = blob bytes.
	SpanRestore
	// SpanRepartition is the recovery migration: the dead node's shard
	// re-partitioned across survivors over the (degraded) interconnect.
	// Arg1 = resume iteration, Arg2 = migrated bytes. Counted as comm.
	SpanRepartition
	// SpanTenant is one tenant's possession slice on a fleet-node track
	// (or its whole service window on its own tenant track). The Chrome
	// exporter renders it under the tenant's registered label (see
	// Collector.SetLabel), so each tenant gets its own color.
	// Arg1 = tenant ID, Arg2 = iterations executed in the slice.
	SpanTenant
	// SpanTenantWait is time a tenant spends admitted but not running
	// (queued, or parked preempted). Arg1 = tenant ID.
	SpanTenantWait
	// SpanTenantCheckpoint is a preemption capture stall: the victim's
	// state draining to a blob at its iteration boundary.
	// Arg1 = tenant ID, Arg2 = blob bytes.
	SpanTenantCheckpoint
	// SpanTenantRestore is a placement restore stall: the resuming
	// tenant's blob streaming back in. Arg1 = tenant ID, Arg2 = blob
	// bytes.
	SpanTenantRestore
)

// String names the span kind (used as the Chrome-trace event name).
func (k SpanKind) String() string {
	switch k {
	case SpanIter:
		return "iter"
	case SpanIdle:
		return "idle"
	case SpanSyncBarrier:
		return "sync_barrier"
	case SpanLinkBarrier:
		return "link_barrier"
	case SpanExchangeWait:
		return "exchange"
	case SpanDeliveryWait:
		return "halo_wait"
	case SpanCompute:
		return "compute"
	case SpanMigration:
		return "migration"
	case SpanLink:
		return "flight"
	case SpanBus:
		return "bus"
	case SpanCheckpoint:
		return "checkpoint"
	case SpanFault:
		return "fault"
	case SpanDetect:
		return "detect"
	case SpanRestore:
		return "restore"
	case SpanRepartition:
		return "repartition"
	case SpanTenant:
		return "tenant"
	case SpanTenantWait:
		return "tenant_wait"
	case SpanTenantCheckpoint:
		return "tenant_checkpoint"
	case SpanTenantRestore:
		return "tenant_restore"
	}
	return "span"
}

// comm reports whether the kind counts as interconnect time in the
// comm-fraction accounting (mirrors scaleout's CommCycles: exchanges,
// link barriers, migrations and recovery re-partitions; the NMP sync
// barrier, detection and restore windows stay out — they are protocol
// overhead, not interconnect occupancy).
func (k SpanKind) comm() bool {
	return k == SpanExchangeWait || k == SpanLinkBarrier || k == SpanMigration ||
		k == SpanRepartition
}

// Span is one recorded time window [Start, End) on a track.
type Span struct {
	Kind       SpanKind
	Start, End sim.Cycle
	Arg1, Arg2 int64
}

// Track is one resource's span stream. A track is single-writer: the
// producer that owns the resource appends in simulation order. The zero
// ID convention is kind-specific (node index, dense link ID, node *
// channels + channel).
type Track struct {
	Kind  TrackKind
	Name  string
	ID    int
	Spans []Span
}

// Add appends one span.
func (t *Track) Add(kind SpanKind, start, end sim.Cycle, a1, a2 int64) {
	t.Spans = append(t.Spans, Span{Kind: kind, Start: start, End: end, Arg1: a1, Arg2: a2})
}

// Len returns the number of recorded spans (used with ShiftRange to
// re-base a batch recorded on a local clock).
func (t *Track) Len() int { return len(t.Spans) }

// Truncate drops every span from index n on: the rollback step for a
// speculative recording window that a fault discarded (the elastic
// overlapped runtime records a whole inter-checkpoint segment, then
// rewinds it when a node loss invalidates the segment's work).
func (t *Track) Truncate(n int) {
	if n < len(t.Spans) {
		t.Spans = t.Spans[:n]
	}
}

// ShiftRange adds delta to the spans in [from, to) only: the
// local-to-global re-basing step for spans recorded on a node engine's
// local clock during one iteration. Spans of later iterations may already
// sit past `to`, still on their local clock until their own placement, so
// each batch is shifted exactly once, by its own delta.
func (t *Track) ShiftRange(from, to int, delta sim.Cycle) {
	if delta == 0 {
		return
	}
	if to > len(t.Spans) {
		to = len(t.Spans)
	}
	for i := from; i < to; i++ {
		t.Spans[i].Start += delta
		t.Spans[i].End += delta
	}
}

// Bound says which dependency gated the start of a node's iteration.
type Bound uint8

const (
	// BoundNone: nothing gated it (iteration 0).
	BoundNone Bound = iota
	// BoundSync: the node's own previous iteration plus the sync barrier
	// resolved last (compute-bound).
	BoundSync
	// BoundDelivery: a halo message delivery resolved last (the sender is
	// Dep.Src) — the interconnect was the bounding resource.
	BoundDelivery
	// BoundBarrier: a BSP superstep boundary (exchange + barriers) gated
	// it; Dep.Src is the slowest node of the previous superstep.
	BoundBarrier
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case BoundNone:
		return "start"
	case BoundSync:
		return "compute"
	case BoundDelivery:
		return "halo"
	case BoundBarrier:
		return "barrier"
	}
	return "bound"
}

// Dep records why node Node's iteration Iter started when it did: the
// dependency that resolved last, and who satisfied it.
type Dep struct {
	Node, Iter int
	Bound      Bound
	// Src is the sender node for BoundDelivery and the slowest node of
	// the previous superstep for BoundBarrier; -1 otherwise.
	Src int
}

// Counter is one named scalar recorded at the end of a run (event-loop
// statistics and similar aggregates that are not time windows).
type Counter struct {
	Name  string
	Value int64
}

// Collector accumulates one run's telemetry: tracks, dependency records
// and counters. It is not safe for concurrent track creation — create
// every track up front, before any parallel section; appending to
// distinct tracks from distinct goroutines is safe (each track is
// single-writer).
type Collector struct {
	tracks   []*Track
	deps     []Dep
	counters []Counter
	labels   map[int64]string
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// NewTrack registers a track. Creation order is the export order, so it
// must be deterministic.
func (c *Collector) NewTrack(kind TrackKind, id int, name string) *Track {
	t := &Track{Kind: kind, ID: id, Name: name}
	c.tracks = append(c.tracks, t)
	return t
}

// Tracks returns every registered track in creation order.
func (c *Collector) Tracks() []*Track { return c.tracks }

// SetLabel registers a display label for an entity ID (a tenant, keyed by
// its SpanTenant Arg1). The Chrome exporter names tenant spans by label,
// which is what colors a fleet timeline per tenant — Perfetto assigns
// colors by event name.
func (c *Collector) SetLabel(id int64, name string) {
	if c.labels == nil {
		c.labels = make(map[int64]string)
	}
	c.labels[id] = name
}

// Label resolves a registered label; ok is false if none was set.
func (c *Collector) Label(id int64) (string, bool) {
	name, ok := c.labels[id]
	return name, ok
}

// AddDep records one iteration-start dependency.
func (c *Collector) AddDep(node, iter int, bound Bound, src int) {
	c.deps = append(c.deps, Dep{Node: node, Iter: iter, Bound: bound, Src: src})
}

// Deps returns the recorded dependency stream.
func (c *Collector) Deps() []Dep { return c.deps }

// NumDeps returns the number of recorded dependencies (the counterpart of
// Track.Len for TruncateDeps-based rollback).
func (c *Collector) NumDeps() int { return len(c.deps) }

// TruncateDeps drops every dependency from index n on — the rollback step
// for a speculative recording window, paired with Track.Truncate.
func (c *Collector) TruncateDeps(n int) {
	if n < len(c.deps) {
		c.deps = c.deps[:n]
	}
}

// AddCounter records one named scalar.
func (c *Collector) AddCounter(name string, v int64) {
	c.counters = append(c.counters, Counter{Name: name, Value: v})
}

// Counters returns the recorded counters in record order.
func (c *Collector) Counters() []Counter { return c.counters }

// Reset drops all recorded state while keeping the collector reusable.
func (c *Collector) Reset() {
	c.tracks = c.tracks[:0]
	c.deps = c.deps[:0]
	c.counters = c.counters[:0]
	c.labels = nil
}
