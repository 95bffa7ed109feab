// In-cache tallying of one top-digit bucket, the way Count finishes the
// paper's single-vector scatter (§4.5 c). A bucket of a k-mer stream holds
// a few true k-mers, each in tens of copies, beside their sequencing-error
// variants, and most of its distinct words fall below MinCount. So instead
// of sorting every word to count runs, the bucket is counted in a small
// open-addressing table, the partition-then-aggregate design of Polychroniou
// & Ross (SIGMOD 2014) and the hash counting of Jellyfish (Marçais &
// Kingsford, 2011), and only the kept k-mers are sorted.
package kmer

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"nmppak/internal/dna"
	"nmppak/internal/par"
)

const (
	// tallyLog bounds the table at 2^tallyLog slots of 12 bytes, 192 KiB,
	// so that it stays in L2 whatever the input, and every slot index fits
	// the uint16 of the occupied list. A (sub-)bucket of at most tallyMax
	// words gets a table of at least twice its length, so at most half its
	// slots fill; a longer one is split by an MSD digit step first.
	tallyLog = 14
	tallyMax = 1 << (tallyLog - 1)

	// probeBudget caps the probes past the home slot a (sub-)bucket may
	// spend, per word. Under the multiplicative hash a real bucket spends
	// well under one; a (sub-)bucket that exceeds it, such as words crafted
	// to collide, is sorted instead, so no input makes counting quadratic.
	probeBudget = 4

	// fibMul is 2^64 over the golden ratio: a word times fibMul, shifted
	// down, spreads words that differ only in their low bases over the
	// table.
	fibMul = 0x9e3779b97f4a7c15
)

// tallier is one goroutine's bucket-tallying state: the table, a key and
// a count per slot, where count 0 marks an empty slot, since every word
// value, 0 and ^0 included, can be a k-mer; the list of the occupied
// slots, so that the scan and the reset touch only those; the kept k-mers
// of the current (sub-)bucket; and the sort state for splits and
// fallbacks. Talliers come from a sync.Pool and grow to the longest
// (sub-)bucket they have held.
type tallier struct {
	sorter
	keys []uint64
	cnts []uint32
	used []uint16
	keep []uint64
	min  uint32
	tl   tally
}

var talliers = sync.Pool{New: func() any { return new(tallier) }}

// tallyBuckets tallies buckets 0 to nb-1 of a top-digit scatter on
// workers goroutines, one tallier each, which take the buckets one at a
// time. Each bucket's head is rewritten with its kept words, ascending,
// and heads[b] and kept[b] receive its length and the bucket's kept count;
// the kinds and instances pruned are returned. At minCount 2 or more a
// head holds a (word, count) pair per kept word: each has at least two
// copies, so its pair fits where they were. Below that every word is kept
// and the head holds the sorted bucket. readHead reads either.
func tallyBuckets(nb, workers int, bucket func(b int) []uint64, minCount uint32, heads, kept []int) (prunedKinds, prunedMass int64) {
	var next, kinds, mass atomic.Int64
	par.For(workers, workers, func(int, int) {
		t := talliers.Get().(*tallier)
		t.min, t.tl = minCount, tally{}
		for b := int(next.Add(1)) - 1; b < nb; b = int(next.Add(1)) - 1 {
			if v := bucket(b); len(v) > 0 {
				k := t.tl.kept
				heads[b] = t.bucket(v, nil, 0)
				kept[b] = t.tl.kept - k
			}
		}
		kinds.Add(t.tl.prunedKinds)
		mass.Add(t.tl.prunedMass)
		talliers.Put(t)
	})
	return kinds.Load(), mass.Load()
}

// readHead fills out, as long as the head's kept count, from a head
// tallyBuckets wrote at minCount.
func readHead(out []Counted, head []uint64, minCount uint32) {
	if minCount < 2 {
		appendKept(out[:0:len(out)], head, minCount)
		return
	}
	for i := range out {
		out[i] = Counted{Km: dna.Kmer(head[2*i]), Count: uint32(head[2*i+1])}
	}
}

// put writes kept word x, seen c times, at v[h:] in the head's format and
// returns the head's new length.
func (t *tallier) put(v []uint64, h int, x uint64, c uint32) int {
	if t.min >= 2 {
		v[h], v[h+1] = x, uint64(c)
		return h + 2
	}
	for range c {
		v[h] = x
		h++
	}
	return h
}

// bucket tallies v, with s of the same length as scratch (nil: the
// sorter's, taken only if needed), and returns the length of the head it
// rewrote. A (sub-)bucket longer than tallyMax is split on its next digit,
// each sub-bucket is tallied in s with v's window as its scratch, and the
// heads are gathered back at the front of v in digit order, so they stay
// ascending.
func (t *tallier) bucket(v, s []uint64, depth int) int {
	if len(v) <= tallyMax {
		if head, ok := t.count(v); ok {
			return head
		}
		t.msd(v, t.scratch(s, len(v)), depth)
		return t.sorted(v)
	}
	s = t.scratch(s, len(v))
	c := t.split(v, s, depth, tallyMax/4)
	if c == nil {
		return t.sorted(v) // every word equal: one run
	}
	lo, head := 0, 0
	for _, hi := range c {
		if hi > lo {
			m := t.bucket(s[lo:hi], v[lo:hi], depth+1)
			head += copy(v[head:], s[lo:lo+m])
		}
		lo = hi
	}
	return head
}

// scratch returns s, or the sorter's scratch resized to n words when s is
// nil.
func (t *tallier) scratch(s []uint64, n int) []uint64 {
	if s == nil {
		return t.buf(n)
	}
	return s
}

// sorted tallies the runs of v, already sorted, and rewrites its head in
// place: a kept run's head entry is never longer than the run.
func (t *tallier) sorted(v []uint64) (h int) {
	for i := 0; i < len(v); {
		j := i + 1
		for j < len(v) && v[j] == v[i] {
			j++
		}
		if c := uint32(j - i); c >= t.min {
			t.tl.kept++
			h = t.put(v, h, v[i], c)
		} else {
			t.tl.prunedKinds++
			t.tl.prunedMass += int64(c)
		}
		i = j
	}
	return h
}

// count tallies v in the table, at most tallyMax words, and rewrites the
// head of v with its kept words. It reports false, with v and the tally
// untouched, when the probes exceed the budget.
func (t *tallier) count(v []uint64) (head int, ok bool) {
	lg := bits.Len(uint(2*len(v) - 1))
	size := 1 << lg
	if len(t.keys) < size {
		t.keys = make([]uint64, size)
		t.cnts = make([]uint32, size)
	}
	keys, cnts := t.keys[:size], t.cnts[:size]
	shift, mask := uint(64-lg), uint64(size-1)
	budget := probeBudget * len(v)
	used := t.used[:0]
	for _, x := range v {
		i := x * fibMul >> shift
		for {
			if cnts[i] == 0 {
				keys[i], cnts[i] = x, 1
				used = append(used, uint16(i))
				break
			}
			if keys[i] == x {
				cnts[i]++
				break
			}
			if budget--; budget < 0 {
				for _, i := range used {
					cnts[i] = 0
				}
				t.used = used
				return 0, false
			}
			i = (i + 1) & mask
		}
	}
	// Prune from the table, sort the kept keys, then find each one's slot
	// again to write its head entry.
	keep := t.keep[:0]
	var kinds, mass int64
	for _, i := range used {
		if cnts[i] >= t.min {
			keep = append(keep, keys[i])
			continue
		}
		kinds++
		mass += int64(cnts[i])
		cnts[i] = 0
	}
	slices.Sort(keep)
	for _, x := range keep {
		i := x * fibMul >> shift
		for keys[i] != x || cnts[i] == 0 {
			i = (i + 1) & mask
		}
		head = t.put(v, head, x, cnts[i])
		cnts[i] = 0
	}
	t.tl.prunedKinds += kinds
	t.tl.prunedMass += mass
	t.tl.kept += len(keep)
	t.used, t.keep = used, keep
	return head, true
}
