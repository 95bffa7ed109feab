package kmer

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"nmppak/internal/dna"
)

// referenceMerge is what a Merger computes: concatenate, sort by key, sum
// equal keys.
func referenceMerge(lists [][]Counted) []Counted {
	var all []Counted
	for _, l := range lists {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(a, b Counted) int { return cmp.Compare(a.Km, b.Km) })
	out := []Counted{all[0]}
	for _, e := range all[1:] {
		if last := &out[len(out)-1]; last.Km == e.Km {
			last.Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	return out
}

// decodeRuns turns arbitrary bytes into 0-70 ascending runs. The first
// byte picks the run count and the key window: the bottom 256 keys, or the
// top 16, which end at the largest Kmer. Every following byte pair appends
// one record to a run, its key a step of 0-2 above that run's previous
// one, so keys repeat within and across runs and, in the top window, many
// runs end on the largest keys. Counts reach the top byte so that sums
// wrap.
func decodeRuns(data []byte) [][]Counted {
	if len(data) == 0 {
		return nil
	}
	lists := make([][]Counted, int(data[0]&0x7f)%71)
	base, width := dna.Kmer(0), dna.Kmer(256)
	if data[0]&0x80 != 0 {
		base, width = ^dna.Kmer(0)-15, 16
	}
	if len(lists) == 0 {
		return lists
	}
	next := make([]dna.Kmer, len(lists))
	for i := 1; i+1 < len(data); i += 2 {
		r := int(data[i]) % len(lists)
		if next[r] += dna.Kmer(data[i+1] % 3); next[r] >= width {
			continue
		}
		lists[r] = append(lists[r], Counted{Km: base + next[r], Count: uint32(data[i+1])<<24 | uint32(data[i])})
	}
	return lists
}

// FuzzMerger checks the digit-bucket merge against concatenate, sort and
// sum on runs with keys shared across and repeated within runs, empty
// runs, and keys at the top of the key space: through a fresh Merger at
// the narrowest width the keys allow, its records in run order, and
// through a warm Merger at the full width whose scratch still holds an
// earlier, larger merge and whose records arrive last run first.
func FuzzMerger(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{3 | 0x80, 0, 2, 1, 2, 2, 2, 0, 0, 1, 1})
	f.Add(func() []byte {
		// 70 runs spread over the bottom window.
		b := []byte{70}
		r := rand.New(rand.NewSource(6))
		for i := 0; i < 4000; i++ {
			b = append(b, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		return b
	}())
	f.Add(func() []byte {
		// 70 runs sharing most keys in the top window.
		b := []byte{70 | 0x80}
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 4000; i++ {
			b = append(b, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		return b
	}())
	var warm Merger
	warm.Reset(1<<14, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := decodeRuns(data)
		want := referenceMerge(lists)
		total := 0
		var first, diff uint64
		for _, l := range lists {
			for _, e := range l {
				if total == 0 {
					first = uint64(e.Km)
				}
				total++
				diff |= uint64(e.Km) ^ first
			}
		}
		var cold Merger
		cold.Reset(total, bits.Len64(diff))
		for _, l := range lists {
			for _, e := range l {
				cold.Count(e.Km)
			}
		}
		cold.Cursors()
		for _, l := range lists {
			for _, e := range l {
				cold.Place(e.Km, e.Count)
			}
		}
		if got := cold.Sum(); !slices.Equal(got, want) {
			t.Fatalf("%d runs: a fresh Merger merged %d records, reference %d", len(lists), len(got), len(want))
		}
		warm.Reset(total, 64)
		for _, l := range lists {
			for _, e := range l {
				warm.Count(e.Km)
			}
		}
		warm.Cursors()
		for i := len(lists) - 1; i >= 0; i-- {
			for _, e := range lists[i] {
				warm.Place(e.Km, e.Count)
			}
		}
		if got := warm.Sum(); !slices.Equal(got, want) {
			t.Fatalf("%d runs: a warm Merger merged %d records, reference %d", len(lists), len(got), len(want))
		}
	})
}
