package scaleout

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nmppak/internal/dram"
	"nmppak/internal/nmp"
	"nmppak/internal/readsim"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// fuzzSeedBlob builds a small valid checkpoint blob of cfg on tr, paused
// before iteration at, for the corpus: flipped and truncated variants of
// real bytes probe much deeper than random noise.
func fuzzSeedBlob(t testing.TB, reads []readsim.Read, tr *trace.Trace, cfg Config, at int) []byte {
	blob, err := Checkpoint(reads, tr, cfg, at)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzRestoreBlob feeds arbitrary bytes into the checkpoint decode and
// restore paths. The contract under fuzzing: corrupted input must produce
// a clean error — never a panic, never a hang, and never an allocation
// sized by an unvalidated length field (the structural caps in validate()
// bound every count before it sizes anything). The corpus holds a
// static-partition blob and a rebalancing one on an empty trace, and the
// same two paused mid-run on a small real trace, whose engine sections
// carry live DRAM timing state that a restore steps onward. Each decoded
// blob is restored under the trace its digest names and the config whose
// partitioner it names, so mutated engine and RebalanceState sections
// reach the engine resume and the rebalance restore paths.
func FuzzRestoreBlob(f *testing.F) {
	empty := &trace.Trace{K: 32}
	reads := testReads(f, 3_000)
	small := testTrace(f, reads, 32, 3)
	cfg := DefaultConfig(2)
	rbCfg := DefaultConfig(2)
	rbCfg.Partitioner = NewRebalancePartitioner(12, 1)
	for _, c := range []Config{cfg, rbCfg} {
		for _, blob := range [][]byte{
			fuzzSeedBlob(f, nil, empty, c, 0),
			fuzzSeedBlob(f, reads, small, c, len(small.Iterations)/2),
		} {
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
			for _, i := range []int{len(checkpointMagic) + 1, len(blob) / 2, len(blob) - 3} {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 0x40
				f.Add(mut)
			}
		}
	}
	f.Add([]byte("NMPPAK-CKPT\n\x02\x00\x00\x00garbage"))
	f.Add([]byte(checkpointMagic + "\x02\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		// Structurally valid decodes must still restore without panicking:
		// either a clean run (a seed blob round-tripping) or a clean
		// mismatch error.
		if ck.Nodes != cfg.Nodes {
			return
		}
		tr := empty
		if ck.TraceDigest == small.Digest() {
			tr = small
		}
		c := cfg
		if ck.Partitioner == rbCfg.Partitioner.Name() {
			c = rbCfg
		}
		if _, err := Restore(tr, c, data); err != nil {
			return
		}
	})
}

// Engine-section fields FuzzRestoreEngineState edits, one per input.
const (
	edNext = iota
	edClock
	edPerIterLen
	edOpenRow
	edHasOpen
	edActAt
	edReadyPre
	edReadyCmd
	edPreDoneAt
	edActTimes
	edActPtr
	edLastActAt
	edWrDataEnd
	edNextRefresh
	edBusFree
	numEngineEdits
)

// FuzzRestoreEngineState edits one field of a real blob's engine section
// and restores it. Byte-level mutation of a gob stream almost never
// decodes, so FuzzRestoreBlob rarely reaches the engine state; this
// fuzzer decodes a blob paused mid-run on a small real trace, sets one
// engine field — node i's resume cursor, clock or iteration-timing count,
// or one bank, rank or bus field of one of its DRAM channels, picked by
// pos — to val, re-marshals it and restores it. The contract: an error
// or a result, never a panic, never a restore that outlives the time
// bound, and never a result whose cycles are negative or run backwards.
func FuzzRestoreEngineState(f *testing.F) {
	reads := testReads(f, 3_000)
	tr := testTrace(f, reads, 32, 3)
	cfg := DefaultConfig(2)
	blob := fuzzSeedBlob(f, reads, tr, cfg, len(tr.Iterations)/2)
	for _, seed := range []struct {
		node, field uint8
		pos         uint16
		val         int64
	}{
		{0, edNext, 0, 1 << 40},
		{1, edNext, 0, -1},
		{0, edClock, 0, 1 << 50},
		{1, edPerIterLen, 0, 0},
		{0, edOpenRow, 3, -1},
		{0, edHasOpen, 5, 1},
		{1, edActAt, 7, 1 << 62},
		{0, edReadyPre, 2, -(1 << 62)},
		{0, edReadyCmd, 9, 1 << 62},
		{1, edPreDoneAt, 11, 1 << 62},
		{0, edActTimes, 1, 1 << 62},
		{0, edActPtr, 0, 9},
		{1, edLastActAt, 4, -(1 << 62)},
		{0, edWrDataEnd, 6, 1 << 62},
		{0, edNextRefresh, 0, -(1 << 62)},
		{1, edBusFree, 1, 1 << 62},
		{0, edBusFree, 0, math.MaxInt64 - 5},
		{0, edClock, 0, math.MaxInt64 - 5},
		{1, edWrDataEnd, 3, math.MinInt64},
	} {
		f.Add(seed.node, seed.field, seed.pos, seed.val)
	}
	f.Fuzz(func(t *testing.T, node, field uint8, pos uint16, val int64) {
		ck, err := UnmarshalCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		editEngine(&ck.Engines[int(node)%len(ck.Engines)], int(field)%numEngineEdits, int(pos), val)
		data, err := ck.Marshal()
		if err != nil {
			return // an edit the encoder refuses never reaches a restore
		}
		// A Restore past the bound fails the run; its goroutine is left
		// behind, since nothing can stop a hung one.
		done := make(chan struct{})
		var res *Result
		go func() {
			defer close(done)
			res, err = Restore(tr, cfg, data) // an error or a result; a panic crashes
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("Restore after setting engine field %d (pos %d) of node %d to %d did not return within 20 s", int(field)%numEngineEdits, pos, node, val)
		}
		if err == nil {
			if msg := cyclesRunBackwards(res); msg != "" {
				t.Fatalf("Restore after setting engine field %d (pos %d) of node %d to %d: %s", int(field)%numEngineEdits, pos, node, val, msg)
			}
		}
	})
}

// cyclesRunBackwards describes the first cycle count of res that is
// negative or decreasing — the total, a node's cycles, or an iteration
// that ends before it starts or starts before the previous one ends — or
// returns "" when there is none.
func cyclesRunBackwards(res *Result) string {
	if res.TotalCycles < 0 {
		return fmt.Sprintf("TotalCycles %d", res.TotalCycles)
	}
	for i, r := range res.NMP {
		if r.Cycles < 0 {
			return fmt.Sprintf("node %d ends at cycle %d", i, r.Cycles)
		}
		prev := sim.Cycle(0)
		for k, it := range r.PerIter {
			if it.Start < prev || it.End < it.Start {
				return fmt.Sprintf("node %d iteration %d runs [%d, %d] after an iteration ending at %d", i, k, it.Start, it.End, prev)
			}
			prev = it.End
		}
	}
	return ""
}

// editEngine sets the engine field ed of st to val; pos picks the
// channel, rank, bank and tFAW slot a DRAM field lives in, from the
// geometry's fixed arrays, so a uint16 pos reaches every bank and rank of
// every channel.
func editEngine(st *nmp.EngineState, ed, pos int, val int64) {
	switch ed {
	case edNext:
		st.Next = int(val)
		return
	case edClock:
		st.Clock = sim.Cycle(val)
		return
	case edPerIterLen:
		n := int(uint64(val) % uint64(len(st.Res.PerIter)+2))
		st.Res.PerIter = append(st.Res.PerIter, make([]nmp.IterTiming, max(n-len(st.Res.PerIter), 0))...)[:n]
		return
	}
	ch := &st.Channels[pos%dram.Channels]
	pos /= dram.Channels
	if ed == edBusFree {
		ch.BusFree = sim.Cycle(val)
		return
	}
	r := pos % dram.Ranks
	pos /= dram.Ranks
	rk, bk := &ch.Ranks[r], &ch.Banks[r][pos%dram.BanksPerRank]
	switch ed {
	case edOpenRow:
		bk.OpenRow = int(val)
	case edHasOpen:
		bk.HasOpen = val&1 == 1
	case edActAt:
		bk.ActAt = sim.Cycle(val)
	case edReadyPre:
		bk.ReadyPre = sim.Cycle(val)
	case edReadyCmd:
		bk.ReadyCmd = sim.Cycle(val)
	case edPreDoneAt:
		bk.PreDoneAt = sim.Cycle(val)
	case edActTimes:
		rk.ActTimes[pos%len(rk.ActTimes)] = sim.Cycle(val)
	case edActPtr:
		rk.ActPtr = int(val)
	case edLastActAt:
		rk.LastActAt = sim.Cycle(val)
	case edWrDataEnd:
		rk.WrDataEnd = sim.Cycle(val)
	case edNextRefresh:
		rk.NextRefresh = sim.Cycle(val)
	}
}
