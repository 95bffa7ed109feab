package dram

import (
	"reflect"
	"testing"

	"nmppak/internal/sim"
)

// refChannel is the channel model in its plain form: it walks the due
// refreshes one interval at a time and issues a row streak one burst at a
// time, where AccessRow skips the refreshes in one step and prices the
// burst train in closed form.
type refChannel struct{ ChannelState }

func (ch *refChannel) access(earliest sim.Cycle, rk, bk, row, blocks int, write bool) sim.Cycle {
	if blocks <= 0 {
		return earliest
	}
	b, r := &ch.Banks[rk][bk], &ch.Ranks[rk]
	t := earliest
	for t >= r.NextRefresh {
		if end := r.NextRefresh + sim.Cycle(TRFC); t < end {
			t = end
		}
		r.NextRefresh += sim.Cycle(TREFI)
		for i := range ch.Banks[rk] {
			ch.Banks[rk][i].HasOpen = false
		}
	}

	rowHit := b.HasOpen && b.OpenRow == row
	if !rowHit {
		act := t
		if b.HasOpen {
			act = max(t, b.ReadyPre) + sim.Cycle(TRP)
		} else {
			act = max(act, b.PreDoneAt)
		}
		act = max(act, r.LastActAt+sim.Cycle(TRRD), r.ActTimes[r.ActPtr]+sim.Cycle(TFAW))
		b.ActAt, b.HasOpen, b.OpenRow = act, true, row
		b.ReadyPre = act + sim.Cycle(TRAS)
		r.ActTimes[r.ActPtr] = act
		r.ActPtr = (r.ActPtr + 1) % 4
		r.LastActAt = act
		ch.Stats.Activates++
		t = act + sim.Cycle(TRCD)
	}
	if !write {
		t = max(t, r.WrDataEnd+sim.Cycle(TWTR))
	}

	lat := sim.Cycle(TCL)
	if write {
		lat = sim.Cycle(TCWL)
	}
	ch.BusFree = max(ch.BusFree, earliest)
	var done sim.Cycle
	for range blocks {
		start := max(t+lat, ch.BusFree)
		ch.BusFree += sim.Cycle(TBL)
		ch.Stats.BusBusyCycles += int64(TBL)
		done = start + sim.Cycle(TBL)
		t = done - lat
	}

	bytes := int64(blocks * BlockBytes)
	if write {
		r.WrDataEnd = done
		b.ReadyPre = max(b.ReadyPre, done+sim.Cycle(TWR))
		ch.Stats.Writes++
		ch.Stats.BytesWritten += bytes
	} else {
		b.ReadyPre = max(b.ReadyPre, t-lat+sim.Cycle(TRTP))
		ch.Stats.Reads++
		ch.Stats.BytesRead += bytes
	}
	if rowHit {
		ch.Stats.RowHits += int64(blocks)
	} else {
		ch.Stats.RowMisses++
		ch.Stats.RowHits += int64(blocks - 1)
	}
	ch.Stats.LastDone = max(ch.Stats.LastDone, done)
	return done
}

// access is one fuzzed AccessRow call, six bytes of fuzz input: a time
// step (little-endian), flags, row (modulo 8) and block count
// (little-endian, modulo 301). The flags hold the rank (bit 0), bank
// (bits 1-4) and direction (bit 5, a write). The clock advances by the
// step's low byte in cycles; with bit 6 by the whole step in units of 16
// cycles, so one access can cross many refresh intervals. Bit 7 instead
// issues the access the low byte's cycles before the clock, leaving it.
type access struct {
	step   uint16
	flags  byte
	row    byte
	blocks uint16
}

const (
	accWrite = 1 << 5
	accJump  = 1 << 6
	accBack  = 1 << 7
)

func encodeAccesses(as ...access) []byte {
	var b []byte
	for _, a := range as {
		b = append(b, byte(a.step), byte(a.step>>8), a.flags, a.row, byte(a.blocks), byte(a.blocks>>8))
	}
	return b
}

// FuzzAccessRow drives a Channel and refChannel with one access stream and
// requires the same completion time for every access and the same final
// state.
func FuzzAccessRow(f *testing.F) {
	bank := func(rk, bk int) byte { return byte(rk | bk<<1) }
	// Eight activates at once on one rank, then on the other: the fifth of
	// each waits for its tFAW window.
	var faw []access
	for rk := range 2 {
		for bk := range 8 {
			faw = append(faw, access{flags: bank(rk, bk), row: byte(bk), blocks: 1})
		}
	}
	f.Add(encodeAccesses(faw...))
	// Row streaks straddling the first refresh deadline: a jump to just
	// before it, then reads and writes across it, then a jump over many
	// intervals.
	f.Add(encodeAccesses(
		access{step: 779, flags: accJump | bank(0, 3), row: 1, blocks: 40},
		access{step: 3, flags: bank(0, 3), row: 1, blocks: 300},
		access{step: 7, flags: accWrite | bank(0, 4), row: 2, blocks: 9},
		access{step: 200, flags: bank(0, 3), row: 1, blocks: 5},
		access{step: 120, flags: bank(1, 3), row: 1, blocks: 1},
		access{step: 0xffff, flags: accJump | bank(0, 3), row: 1, blocks: 2},
		access{step: 90, flags: accBack | bank(0, 3), row: 6, blocks: 17},
	))
	// Write-read turnarounds and row conflicts in one bank.
	f.Add(encodeAccesses(
		access{flags: accWrite, row: 0, blocks: 128},
		access{step: 1, row: 0, blocks: 128},
		access{step: 1, row: 1, blocks: 3},
		access{step: 1, flags: accWrite, row: 0, blocks: 300},
		access{step: 0, flags: accBack, row: 2, blocks: 0},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := idle()
		ref := refChannel{*idle().ChannelState}
		var now sim.Cycle
		for i := 0; i+6 <= len(data) && i < 6*256; i += 6 {
			a := access{uint16(data[i]) | uint16(data[i+1])<<8, data[i+2], data[i+3], uint16(data[i+4]) | uint16(data[i+5])<<8}
			earliest := now
			switch {
			case a.flags&accBack != 0:
				earliest = max(0, now-sim.Cycle(a.step&0xff))
			case a.flags&accJump != 0:
				now += 16 * sim.Cycle(a.step)
				earliest = now
			default:
				now += sim.Cycle(a.step & 0xff)
				earliest = now
			}
			rk, bk, row := int(a.flags&1), int(a.flags>>1&15), int(a.row&7)
			blocks, write := int(a.blocks%301), a.flags&accWrite != 0
			want := ref.access(earliest, rk, bk, row, blocks, write)
			if got := ch.AccessRow(earliest, rk, bk, row, blocks, write); got != want {
				t.Fatalf("access %d (at %d, rank %d bank %d row %d, %d blocks, write %v): done %d, reference %d",
					i/6, earliest, rk, bk, row, blocks, write, got, want)
			}
		}
		if got := *ch.ChannelState; !reflect.DeepEqual(got, ref.ChannelState) {
			t.Fatalf("final state %+v, reference %+v", got, ref.ChannelState)
		}
	})
}
