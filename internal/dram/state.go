package dram

import (
	"fmt"

	"nmppak/internal/sim"
)

// BankState is one bank's timing state.
type BankState struct {
	OpenRow   int
	HasOpen   bool
	ActAt     sim.Cycle // last ACT time
	ReadyPre  sim.Cycle // earliest PRE
	ReadyCmd  sim.Cycle // earliest next RD/WR issue (tCCD-style, folded into the bus)
	PreDoneAt sim.Cycle // earliest next ACT (after PRE + tRP)
}

// RankState is one rank's timing state.
type RankState struct {
	ActTimes    [4]sim.Cycle // ring buffer of the last four ACTs, for tFAW
	ActPtr      int          // ActTimes slot the next ACT overwrites
	LastActAt   sim.Cycle
	WrDataEnd   sim.Cycle // for tWTR
	NextRefresh sim.Cycle
}

// ChannelState is a channel's complete timing state: every bank and rank
// timing constraint, the data-bus reservation pointer and the accumulated
// statistics. It is a plain value sized by the geometry constants, so a
// snapshot is an assignment. A Channel runs on one in place — the
// channel's behaviour is a pure function of (ChannelState, access
// stream).
type ChannelState struct {
	Banks [Ranks][BanksPerRank]BankState // [rank][bank]
	Ranks [Ranks]RankState
	// BusFree is the earliest cycle at which the next data burst may begin.
	BusFree sim.Cycle
	Stats   Stats
}

// ResumeChannel returns a channel that continues from st in place — st
// typically decoded from a checkpoint, so untrusted. It first checks the
// invariants the timing model keeps: every ActPtr indexes ActTimes; no
// rank's next refresh lies before the first, at TREFI; every bank, rank
// and bus timestamp lies in [farPast, MaxCycle], so no later sum wraps.
func ResumeChannel(st *ChannelState) (Channel, error) {
	for r := range st.Banks {
		for b := range st.Banks[r] {
			bk := &st.Banks[r][b]
			if !inRange(bk.ActAt, bk.ReadyPre, bk.ReadyCmd, bk.PreDoneAt) {
				return Channel{}, fmt.Errorf("dram: state rank %d bank %d holds a timestamp outside [%d, %d]", r, b, farPast, MaxCycle)
			}
		}
	}
	if !inRange(st.BusFree) {
		return Channel{}, fmt.Errorf("dram: state bus free at %d, outside [%d, %d]", st.BusFree, farPast, MaxCycle)
	}
	for r := range st.Ranks {
		rk := &st.Ranks[r]
		if rk.ActPtr < 0 || rk.ActPtr >= len(rk.ActTimes) {
			return Channel{}, fmt.Errorf("dram: state rank %d ActPtr %d outside [0, %d)", r, rk.ActPtr, len(rk.ActTimes))
		}
		if rk.NextRefresh < sim.Cycle(TREFI) {
			return Channel{}, fmt.Errorf("dram: state rank %d NextRefresh %d before the first refresh at TREFI %d", r, rk.NextRefresh, TREFI)
		}
		a := rk.ActTimes
		if !inRange(a[0], a[1], a[2], a[3], rk.LastActAt, rk.WrDataEnd, rk.NextRefresh) {
			return Channel{}, fmt.Errorf("dram: state rank %d holds a timestamp outside [%d, %d]", r, farPast, MaxCycle)
		}
	}
	return Channel{ChannelState: st}, nil
}

// inRange reports whether every timestamp lies in [farPast, MaxCycle].
func inRange(ts ...sim.Cycle) bool {
	for _, t := range ts {
		if t < farPast || t > MaxCycle {
			return false
		}
	}
	return true
}
