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
package dram

import (
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
)

// Config holds the channel geometry and timing parameters in 1.6 GHz
// cycles (DDR4-3200: one command-clock cycle = 0.625 ns).
type Config struct {
	Ranks        int // ranks per channel (paper: 2)
	BanksPerRank int // DDR4: 16
	RowBytes     int // row buffer size (8 KB)

	// Core timing (cycles). Defaults follow DDR4-3200AA (22-22-22).
	TRCD  int // ACT -> RD/WR
	TRP   int // PRE -> ACT
	TCL   int // RD -> first data
	TCWL  int // WR -> first data
	TBL   int // data burst length on the bus (BL8 = 4 clocks)
	TRAS  int // ACT -> PRE
	TRRD  int // ACT -> ACT, different bank, same rank
	TFAW  int // four-activate window per rank
	TWR   int // end of write data -> PRE
	TRTP  int // RD -> PRE
	TWTR  int // end of write data -> RD (same rank)
	TRFC  int // refresh cycle time
	TREFI int // refresh interval
}

// DDR4_3200 returns the paper's memory configuration (Table 2).
func DDR4_3200() Config {
	return Config{
		Ranks:        2,
		BanksPerRank: 16,
		RowBytes:     8192,
		TRCD:         22,
		TRP:          22,
		TCL:          22,
		TCWL:         16,
		TBL:          4,
		TRAS:         52,
		TRRD:         6,
		TFAW:         26,
		TWR:          24,
		TRTP:         12,
		TWTR:         12,
		TRFC:         560,   // 350 ns
		TREFI:        12480, // 7.8 us
	}
}

// BlockBytes is the burst granularity (one BL8 burst on a x64 DIMM).
const BlockBytes = 64

// PeakBytesPerCycle is the channel's data-bus peak (64 B per tBL=4 cycles).
func (c Config) PeakBytesPerCycle() float64 { return BlockBytes / float64(c.TBL) }

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

// Utilization is achieved bandwidth as a fraction of peak over [0, end].
func (s *Stats) Utilization(cfg Config, end sim.Cycle) float64 {
	if end <= 0 {
		return 0
	}
	peak := cfg.PeakBytesPerCycle() * float64(end)
	return float64(s.TotalBytes()) / peak
}

type bank struct {
	openRow   int
	hasOpen   bool
	actAt     sim.Cycle // last ACT time
	readyPre  sim.Cycle // earliest PRE
	readyCmd  sim.Cycle // earliest next RD/WR issue (tCCD-style, folded into bus)
	preDoneAt sim.Cycle // earliest next ACT (after PRE + tRP)
}

type rank struct {
	actTimes    [4]sim.Cycle // ring buffer for tFAW
	actPtr      int
	lastActAt   sim.Cycle
	wrDataEnd   sim.Cycle // for tWTR
	nextRefresh sim.Cycle
}

// Channel is one DDR4 channel with its banks and shared data bus.
type Channel struct {
	cfg   Config
	banks [][]bank // [rank][bank]
	ranks []rank
	// busFree is the earliest cycle at which the next data burst may begin.
	busFree sim.Cycle
	Stats   Stats
	// probe, when non-nil, receives one data-bus occupancy span per burst
	// train (nil = telemetry disabled, zero overhead beyond one branch).
	probe *telemetry.Track
}

// SetProbe attaches (or, with nil, detaches) a data-bus occupancy track.
// Spans are recorded on the channel's local clock; callers re-base them to
// global time with Track.ShiftRange.
func (ch *Channel) SetProbe(t *telemetry.Track) { ch.probe = t }

// NewChannel builds a channel from cfg (zero fields filled with DDR4-3200
// defaults).
func NewChannel(cfg Config) *Channel {
	def := DDR4_3200()
	if cfg.Ranks == 0 {
		cfg = def
	}
	ch := &Channel{cfg: cfg}
	ch.banks = make([][]bank, cfg.Ranks)
	for r := range ch.banks {
		ch.banks[r] = make([]bank, cfg.BanksPerRank)
		for b := range ch.banks[r] {
			ch.banks[r][b].openRow = -1
		}
	}
	ch.ranks = make([]rank, cfg.Ranks)
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		rk.nextRefresh = sim.Cycle(cfg.TREFI)
		// Far-past initial timestamps so window constraints are inactive
		// at t=0.
		const past = -1 << 30
		rk.lastActAt = past
		rk.wrDataEnd = past
		for i := range rk.actTimes {
			rk.actTimes[i] = past
		}
	}
	return ch
}

// Config returns the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

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
	cfg := ch.cfg
	b := &ch.banks[rk][bk]
	r := &ch.ranks[rk]

	t := earliest
	// Refresh: if the access would overlap the rank's pending refresh
	// window, slide past it.
	if t >= r.nextRefresh {
		refEnd := r.nextRefresh + sim.Cycle(cfg.TRFC)
		for t >= r.nextRefresh {
			if t < refEnd {
				t = refEnd
			}
			r.nextRefresh += sim.Cycle(cfg.TREFI)
			refEnd = r.nextRefresh + sim.Cycle(cfg.TRFC)
			// A refresh closes all rows in the rank.
			for i := range ch.banks[rk] {
				ch.banks[rk][i].hasOpen = false
			}
		}
	}

	rowHit := b.hasOpen && b.openRow == row
	if !rowHit {
		// PRE (if a different row is open) then ACT.
		actReady := t
		if b.hasOpen {
			pre := maxCycle(t, b.readyPre)
			actReady = pre + sim.Cycle(cfg.TRP)
		} else if b.preDoneAt > actReady {
			actReady = b.preDoneAt
		}
		// tRRD from the rank's last ACT and the tFAW window.
		if v := r.lastActAt + sim.Cycle(cfg.TRRD); v > actReady {
			actReady = v
		}
		if v := r.actTimes[r.actPtr] + sim.Cycle(cfg.TFAW); v > actReady {
			actReady = v
		}
		act := actReady
		b.actAt = act
		b.hasOpen = true
		b.openRow = row
		b.readyPre = act + sim.Cycle(cfg.TRAS)
		r.actTimes[r.actPtr] = act
		r.actPtr = (r.actPtr + 1) % 4
		r.lastActAt = act
		ch.Stats.Activates++
		t = act + sim.Cycle(cfg.TRCD)
	}

	// Write-to-read turnaround.
	if !write {
		if v := r.wrDataEnd + sim.Cycle(cfg.TWTR); v > t {
			t = v
		}
	}

	// Burst train: each 64 B burst occupies tBL on the shared bus. The
	// bus reservation pointer advances by tBL per burst from its own
	// position (clamped to the request's arrival), so a burst delayed by
	// its bank's timing consumes capacity without head-of-line blocking
	// unrelated accesses — the first-ready-first-served behaviour of an
	// FR-FCFS controller.
	lat := sim.Cycle(cfg.TCL)
	if write {
		lat = sim.Cycle(cfg.TCWL)
	}
	if ch.busFree < earliest {
		ch.busFree = earliest
	}
	busStart := ch.busFree
	var done sim.Cycle
	for i := 0; i < blocks; i++ {
		dataStart := maxCycle(t+lat, ch.busFree)
		ch.busFree += sim.Cycle(cfg.TBL)
		ch.Stats.BusBusyCycles += int64(cfg.TBL)
		done = dataStart + sim.Cycle(cfg.TBL)
		t = done - lat // next command slot
	}
	if ch.probe != nil {
		// The reservation pointer is monotone, so [busStart, busFree)
		// windows never overlap and their lengths sum to BusBusyCycles.
		wr := int64(0)
		if write {
			wr = 1
		}
		ch.probe.Add(telemetry.SpanBus, busStart, ch.busFree, int64(blocks*BlockBytes), wr)
	}
	if write {
		r.wrDataEnd = done
		if v := done + sim.Cycle(cfg.TWR); v > b.readyPre {
			b.readyPre = v
		}
		ch.Stats.Writes++
		ch.Stats.BytesWritten += int64(blocks * BlockBytes)
	} else {
		if v := t - lat + sim.Cycle(cfg.TRTP); v > b.readyPre {
			b.readyPre = v
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
