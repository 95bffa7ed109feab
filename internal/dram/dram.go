// Package dram models a DDR4-3200 memory channel with bank-level timing —
// the repository's substitute for Ramulator (§5.2 of the paper).
//
// The model is transaction-level with exact command-timing algebra rather
// than per-cycle state machines: every access computes its ACT/RD/WR/PRE
// issue times from per-bank and per-rank timestamp constraints (tRCD, tRP,
// tCL, tRAS, tRRD, tFAW, tWR, tRTP, tWTR, refresh) and reserves the shared
// data bus, so row-buffer hits, bank-level parallelism, bus serialization
// and refresh interference all behave as in a cycle-accurate simulator
// while remaining fast enough to sweep whole-system configurations.
//
// The unit of access is a row streak: n consecutive 64-byte bursts within
// one row of one bank, which is exactly how MacroNodes are laid out (the
// paper leans on MacroNodes fitting the 8 KB row buffer; see §3.4).
//
// The live state is the snapshot type: a Channel runs in place on a
// ChannelState (state.go), a fixed-size value whose arrays the geometry
// constants size, so a snapshot is an assignment and ResumeChannel only
// checks a decoded state's timing invariants before running on it — one
// shape for the running model and its checkpoint.
package dram

import (
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
)

// The channel's geometry and timing: the paper's DDR4-3200 (Table 2),
// timings in 1.6 GHz cycles (one command-clock cycle = 0.625 ns) at
// DDR4-3200AA (22-22-22). The constants are typed int: an expression
// such as sim.Cycle(TRCD + TCL + TBL) sums in int before converting,
// exactly as the model's timing algebra is written.
const (
	Ranks        int = 2    // ranks per channel
	BanksPerRank int = 16   // DDR4
	RowBytes     int = 8192 // row buffer size (8 KB)

	TRCD  int = 22    // ACT -> RD/WR
	TRP   int = 22    // PRE -> ACT
	TCL   int = 22    // RD -> first data
	TCWL  int = 16    // WR -> first data
	TBL   int = 4     // data burst length on the bus (BL8 = 4 clocks)
	TRAS  int = 52    // ACT -> PRE
	TRRD  int = 6     // ACT -> ACT, different bank, same rank
	TFAW  int = 26    // four-activate window per rank
	TWR   int = 24    // end of write data -> PRE
	TRTP  int = 12    // RD -> PRE
	TWTR  int = 12    // end of write data -> RD (same rank)
	TRFC  int = 560   // refresh cycle time (350 ns)
	TREFI int = 12480 // refresh interval (7.8 us)
)

// Channels is a node's channel count: eight DDR4 channels of one DIMM
// each (Fig. 9, Table 2). The NMP engine puts its PEs in each DIMM's
// buffer chip, and the CPU model shares the same eight channels.
const Channels int = 8

// AccessRow skips every refresh due before an access at once, which holds
// only if a refresh ends before the next is due: this conversion fails to
// compile unless TRFC < TREFI.
const _ = uint(TREFI - TRFC - 1)

// MaxCycle bounds every timestamp a resumed channel or engine may hold
// (≈8 simulated days). Every timing above is below 2^14 cycles, so no sum
// in AccessRow comes near int64's range: a train of 2^25 bursts, the most
// a node of int32 bytes needs, adds at most 2^27 cycles to a timestamp
// below 2^50.
const MaxCycle = sim.Cycle(1) << 50

// farPast is NewChannel's initial ACT and write-data time, early enough
// that no window constraint binds at cycle 0. No timing field of a
// channel's state is ever earlier.
const farPast = sim.Cycle(-1 << 30)

// BlockBytes is the burst granularity (one BL8 burst on a x64 DIMM).
const BlockBytes = 64

// PeakBytesPerCycle is the channel's data-bus peak (64 B per tBL=4 cycles).
const PeakBytesPerCycle float64 = BlockBytes / float64(TBL)

// Stats aggregates channel activity.
type Stats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	Activates               int64
	RowHits                 int64 // bursts served from an already-open row
	RowMisses               int64 // bursts requiring an activate
	BusBusyCycles           int64
	LastDone                sim.Cycle
}

// TotalBytes moved in both directions.
func (s *Stats) TotalBytes() int64 { return s.BytesRead + s.BytesWritten }

// Channel is one DDR4 channel with its banks and shared data bus, running
// in place on a ChannelState it does not own: NewChannel and
// ResumeChannel bind it to the caller's state.
type Channel struct {
	*ChannelState
	// probe, when non-nil, receives one data-bus occupancy span per burst
	// train (nil = telemetry disabled, zero overhead beyond one branch).
	probe *telemetry.Track
}

// SetProbe attaches (or, with nil, detaches) a data-bus occupancy track.
// Spans are recorded on the channel's local clock; callers re-base them to
// global time with Track.ShiftRange.
func (ch *Channel) SetProbe(t *telemetry.Track) { ch.probe = t }

// NewChannel sets st to an idle channel's state — every bank closed,
// every rank's first refresh due at TREFI — and returns a channel running
// on it.
func NewChannel(st *ChannelState) Channel {
	*st = ChannelState{}
	for r := range st.Banks {
		for b := range st.Banks[r] {
			st.Banks[r][b].OpenRow = -1
		}
		rk := &st.Ranks[r]
		rk.NextRefresh = sim.Cycle(TREFI)
		rk.LastActAt = farPast
		rk.WrDataEnd = farPast
		for i := range rk.ActTimes {
			rk.ActTimes[i] = farPast
		}
	}
	return Channel{ChannelState: st}
}

// BlocksFor returns the number of 64 B bursts needed for n bytes.
func BlocksFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BlockBytes - 1) / BlockBytes
}

// AccessRow performs blocks consecutive bursts to/from one row of one bank,
// no earlier than `earliest`, and returns the cycle at which the last data
// beat completes. It encapsulates the full command sequence: (optional PRE
// +) ACT on a row miss, then the burst train, honoring all timing
// constraints and bus availability.
func (ch *Channel) AccessRow(earliest sim.Cycle, rk, bk, row, blocks int, write bool) sim.Cycle {
	if blocks <= 0 {
		return earliest
	}
	b := &ch.Banks[rk][bk]
	r := &ch.Ranks[rk]

	t := earliest
	// Refresh: if the access would overlap the rank's pending refresh
	// window, slide past it. Every refresh due by t is skipped at once:
	// with TRFC < TREFI only the last of them can still hold t back.
	if t >= r.NextRefresh {
		trefi := sim.Cycle(TREFI)
		last := r.NextRefresh + (t-r.NextRefresh)/trefi*trefi
		if end := last + sim.Cycle(TRFC); t < end {
			t = end
		}
		r.NextRefresh = last + trefi
		// A refresh closes all rows in the rank.
		banks := &ch.Banks[rk]
		for i := range banks {
			banks[i].HasOpen = false
		}
	}

	rowHit := b.HasOpen && b.OpenRow == row
	if !rowHit {
		// PRE (if a different row is open) then ACT.
		actReady := t
		if b.HasOpen {
			pre := maxCycle(t, b.ReadyPre)
			actReady = pre + sim.Cycle(TRP)
		} else if b.PreDoneAt > actReady {
			actReady = b.PreDoneAt
		}
		// tRRD from the rank's last ACT and the tFAW window.
		if v := r.LastActAt + sim.Cycle(TRRD); v > actReady {
			actReady = v
		}
		if v := r.ActTimes[r.ActPtr] + sim.Cycle(TFAW); v > actReady {
			actReady = v
		}
		act := actReady
		b.ActAt = act
		b.HasOpen = true
		b.OpenRow = row
		b.ReadyPre = act + sim.Cycle(TRAS)
		r.ActTimes[r.ActPtr] = act
		r.ActPtr = (r.ActPtr + 1) % 4
		r.LastActAt = act
		ch.Stats.Activates++
		t = act + sim.Cycle(TRCD)
	}

	// Write-to-read turnaround.
	if !write {
		if v := r.WrDataEnd + sim.Cycle(TWTR); v > t {
			t = v
		}
	}

	// Burst train: each 64 B burst occupies tBL on the shared bus. The
	// bus reservation pointer advances by tBL per burst from its own
	// position (clamped to the request's arrival), so a burst delayed by
	// its bank's timing consumes capacity without head-of-line blocking
	// unrelated accesses — the first-ready-first-served behaviour of an
	// FR-FCFS controller. Each burst's data starts at the later of its
	// command slot plus the latency and the bus pointer; after the first,
	// both have advanced by tBL, so the bursts run back to back and the
	// train ends blocks*tBL after the first one starts.
	lat := sim.Cycle(TCL)
	if write {
		lat = sim.Cycle(TCWL)
	}
	if ch.BusFree < earliest {
		ch.BusFree = earliest
	}
	busStart := ch.BusFree
	train := sim.Cycle(blocks) * sim.Cycle(TBL)
	done := maxCycle(t+lat, busStart) + train
	t = done - lat // next command slot
	ch.BusFree += train
	ch.Stats.BusBusyCycles += train
	if ch.probe != nil {
		// The reservation pointer is monotone, so [busStart, BusFree)
		// windows never overlap and their lengths sum to BusBusyCycles.
		wr := int64(0)
		if write {
			wr = 1
		}
		ch.probe.Add(telemetry.SpanBus, busStart, ch.BusFree, int64(blocks*BlockBytes), wr)
	}
	if write {
		r.WrDataEnd = done
		if v := done + sim.Cycle(TWR); v > b.ReadyPre {
			b.ReadyPre = v
		}
		ch.Stats.Writes++
		ch.Stats.BytesWritten += int64(blocks * BlockBytes)
	} else {
		if v := t - lat + sim.Cycle(TRTP); v > b.ReadyPre {
			b.ReadyPre = v
		}
		ch.Stats.Reads++
		ch.Stats.BytesRead += int64(blocks * BlockBytes)
	}
	// The first burst of a row miss is the miss; every subsequent burst in
	// the streak is a row hit.
	if rowHit {
		ch.Stats.RowHits += int64(blocks)
	} else {
		ch.Stats.RowMisses++
		ch.Stats.RowHits += int64(blocks - 1)
	}
	if done > ch.Stats.LastDone {
		ch.Stats.LastDone = done
	}
	return done
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}
