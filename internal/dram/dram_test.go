package dram

import (
	"math"
	"testing"

	"nmppak/internal/sim"
)

// idle returns a channel running on an idle state of its own.
func idle() *Channel {
	ch := NewChannel(new(ChannelState))
	return &ch
}

func TestRowHitFasterThanMiss(t *testing.T) {
	ch := idle()
	// First access: row miss (ACT + RCD + CL + BL).
	d1 := ch.AccessRow(0, 0, 0, 5, 1, false)
	wantMiss := sim.Cycle(TRCD + TCL + TBL)
	if d1 != wantMiss {
		t.Fatalf("miss latency %d want %d", d1, wantMiss)
	}
	// Same row again: hit, no ACT.
	d2 := ch.AccessRow(d1, 0, 0, 5, 1, false)
	if d2-d1 >= d1 {
		t.Fatalf("row hit latency %d not faster than miss %d", d2-d1, d1)
	}
	if ch.Stats.Activates != 1 {
		t.Fatalf("activates = %d want 1", ch.Stats.Activates)
	}
}

func TestRowConflictRequiresPrecharge(t *testing.T) {
	ch := idle()
	d1 := ch.AccessRow(0, 0, 0, 5, 1, false)
	// Different row in the same bank: PRE + ACT. tRAS from the first ACT
	// dominates the earliest PRE.
	d2 := ch.AccessRow(d1, 0, 0, 9, 1, false)
	minGap := sim.Cycle(TRP + TRCD + TCL + TBL)
	if d2-d1 < minGap {
		t.Fatalf("conflict gap %d < %d", d2-d1, minGap)
	}
	if ch.Stats.Activates != 2 || ch.Stats.RowMisses != 2 {
		t.Fatalf("stats %+v", ch.Stats)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	// 8 single-burst accesses to different rows: across banks they overlap
	// (bus-limited), in one bank they serialize on tRC-ish gaps.
	same := idle()
	var doneSame sim.Cycle
	for i := 0; i < 8; i++ {
		doneSame = same.AccessRow(0, 0, 0, i, 1, false)
	}
	diff := idle()
	var doneDiff sim.Cycle
	for i := 0; i < 8; i++ {
		d := diff.AccessRow(0, 0, i, 0, 1, false)
		if d > doneDiff {
			doneDiff = d
		}
	}
	if doneDiff >= doneSame {
		t.Fatalf("bank parallelism %d not faster than same-bank %d", doneDiff, doneSame)
	}
}

// utilization is achieved bandwidth as a fraction of peak over [0, end].
func utilization(s *Stats, end sim.Cycle) float64 {
	return float64(s.TotalBytes()) / (PeakBytesPerCycle * float64(end))
}

func TestStreamingApproachesPeakBandwidth(t *testing.T) {
	ch := idle()
	// Stream 128 blocks (one full row) repeatedly across banks.
	var done sim.Cycle
	for b := 0; b < 16; b++ {
		done = ch.AccessRow(done, 0, b, 0, 128, false)
	}
	util := utilization(&ch.Stats, done)
	if util < 0.85 {
		t.Fatalf("streaming utilization %.2f < 0.85", util)
	}
	if util > 1.0001 {
		t.Fatalf("utilization %v exceeds peak", util)
	}
}

func TestUtilizationNeverExceedsPeak(t *testing.T) {
	ch := idle()
	var done sim.Cycle
	for i := 0; i < 200; i++ {
		d := ch.AccessRow(sim.Cycle(i), i%2, i%16, i%7, 1+i%9, i%3 == 0)
		if d > done {
			done = d
		}
	}
	if util := utilization(&ch.Stats, done); util > 1.0001 {
		t.Fatalf("utilization %v > 1", util)
	}
	if ch.Stats.TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	ch := idle()
	dw := ch.AccessRow(0, 0, 0, 3, 1, true)
	dr := ch.AccessRow(dw, 0, 0, 3, 1, false)
	// Read data cannot start before write data end + tWTR + tCL.
	if dr < dw+sim.Cycle(TWTR) {
		t.Fatalf("read completed %d, too soon after write end %d", dr, dw)
	}
}

func TestMonotoneNonDecreasingCompletion(t *testing.T) {
	ch := idle()
	var prev sim.Cycle
	for i := 0; i < 500; i++ {
		d := ch.AccessRow(prev, (i/16)%2, i%16, i%3, 1+(i%4), i%5 == 0)
		if d < prev {
			t.Fatalf("completion went backwards: %d after %d", d, prev)
		}
		prev = d
	}
}

func TestRefreshInterference(t *testing.T) {
	ch := idle()
	// Access right at the refresh deadline: should be pushed past tRFC.
	at := sim.Cycle(TREFI)
	d := ch.AccessRow(at, 0, 0, 0, 1, false)
	if d < at+sim.Cycle(TRFC) {
		t.Fatalf("refresh not applied: done %d < %d", d, at+sim.Cycle(TRFC))
	}
}

func TestEarliestRespected(t *testing.T) {
	ch := idle()
	d := ch.AccessRow(1000, 0, 0, 0, 1, false)
	if d < 1000 {
		t.Fatalf("completed %d before earliest 1000", d)
	}
	if got := ch.AccessRow(500, 1, 0, 0, 0, false); got != 500 {
		t.Fatalf("zero blocks must be a no-op returning earliest, got %d", got)
	}
}

func TestBlocksFor(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {8192, 128}} {
		if got := BlocksFor(tc.n); got != tc.want {
			t.Errorf("BlocksFor(%d) = %d want %d", tc.n, got, tc.want)
		}
	}
}

func TestPeakBytesPerCycle(t *testing.T) {
	if PeakBytesPerCycle != 16 {
		t.Fatalf("peak = %v want 16 B/cycle (25.6 GB/s at 1.6 GHz)", PeakBytesPerCycle)
	}
}

// AccessRow skips every refresh due before an access in one step. It must
// land where walking the refreshes one interval at a time does, however
// far past the pending refresh the access arrives.
func TestRefreshSkipMatchesPerIntervalWalk(t *testing.T) {
	trefi, trfc := sim.Cycle(TREFI), sim.Cycle(TRFC)
	for _, at := range []sim.Cycle{0, trefi - 1, trefi, trefi + trfc - 1, trefi + trfc, 2*trefi - 1,
		2 * trefi, 7*trefi + 3, 40*trefi + trfc, 1 << 40} {
		// The per-interval walk the skip replaces.
		start, next := at, trefi
		for start >= next {
			if start < next+trfc {
				start = next + trfc
			}
			next += trefi
		}
		ch := idle()
		want := start + sim.Cycle(TRCD+TCL+TBL)
		if got := ch.AccessRow(at, 0, 0, 0, 1, false); got != want {
			t.Errorf("access at %d done %d, want %d", at, got, want)
		}
		if got := ch.Ranks[0].NextRefresh; got != next {
			t.Errorf("access at %d: next refresh %d, want %d", at, got, next)
		}
	}
}

// A channel's state copies by assignment, and ResumeChannel continues from
// the copy exactly as the donor channel does.
func TestStateResumeEquivalence(t *testing.T) {
	access := func(ch *Channel, from, to int) sim.Cycle {
		var d sim.Cycle
		for i := from; i < to; i++ {
			d = ch.AccessRow(sim.Cycle(i*40), i%2, i%16, i%5, 1+i%4, i%3 == 0)
		}
		return d
	}
	donor := idle()
	access(donor, 0, 300)
	st := *donor.ChannelState
	want := access(donor, 300, 900)
	ch, err := ResumeChannel(&st)
	if err != nil {
		t.Fatal(err)
	}
	if got := access(&ch, 300, 900); got != want || ch.Stats != donor.Stats || ch.BusFree != donor.BusFree {
		t.Fatalf("resumed channel diverged: done %d vs %d, stats %+v vs %+v", got, want, ch.Stats, donor.Stats)
	}
}

// ResumeChannel is the check a decoded checkpoint's DRAM state passes
// through: a bank, rank or bus state the timing model never produces is
// an error. The state's shape is the geometry's by type; a wire list of
// another length is the codec's to reject (internal/scaleout).
func TestResumeChannelRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ChannelState)
	}{
		{"ActPtr past the ring", func(s *ChannelState) { s.Ranks[0].ActPtr = 4 }},
		{"negative ActPtr", func(s *ChannelState) { s.Ranks[1].ActPtr = -1 }},
		{"NextRefresh before TREFI", func(s *ChannelState) { s.Ranks[0].NextRefresh = sim.Cycle(TREFI) - 1 }},
		{"NextRefresh far in the past", func(s *ChannelState) { s.Ranks[1].NextRefresh = -(1 << 62) }},
		{"NextRefresh past the ceiling", func(s *ChannelState) { s.Ranks[0].NextRefresh = MaxCycle + 1 }},
		{"BusFree near the int64 limit", func(s *ChannelState) { s.BusFree = math.MaxInt64 - 5 }},
		{"BusFree before the far past", func(s *ChannelState) { s.BusFree = farPast - 1 }},
		{"ActAt past the ceiling", func(s *ChannelState) { s.Banks[1][7].ActAt = MaxCycle + 1 }},
		{"ReadyPre before the far past", func(s *ChannelState) { s.Banks[0][2].ReadyPre = -(1 << 62) }},
		{"ReadyCmd past the ceiling", func(s *ChannelState) { s.Banks[0][0].ReadyCmd = 1 << 62 }},
		{"PreDoneAt past the ceiling", func(s *ChannelState) { s.Banks[1][15].PreDoneAt = MaxCycle + 1 }},
		{"ActTimes slot past the ceiling", func(s *ChannelState) { s.Ranks[1].ActTimes[3] = 1 << 62 }},
		{"LastActAt before the far past", func(s *ChannelState) { s.Ranks[0].LastActAt = farPast - 1 }},
		{"WrDataEnd past the ceiling", func(s *ChannelState) { s.Ranks[1].WrDataEnd = math.MaxInt64 }},
	} {
		st := idle().ChannelState
		tc.edit(st)
		if _, err := ResumeChannel(st); err == nil {
			t.Errorf("%s: ResumeChannel accepted the state", tc.name)
		}
	}
	if _, err := ResumeChannel(idle().ChannelState); err != nil {
		t.Fatalf("ResumeChannel rejected a fresh channel's state: %v", err)
	}
	edge := idle().ChannelState
	edge.BusFree, edge.Banks[0][0].ActAt, edge.Ranks[1].LastActAt = MaxCycle, MaxCycle, farPast
	if _, err := ResumeChannel(edge); err != nil {
		t.Fatalf("ResumeChannel rejected timestamps at the bounds: %v", err)
	}
}
