// Most-significant-digit bucket sort for packed k-mer words — the
// stdlib-only substitute for the __gnu_parallel::sort the paper's optimized
// k-mer counting uses (§4.5 c). Each digit step scatters its input on a
// digit just below the highest bit the words differ on, and every
// sub-bucket is finished in cache without comparator calls. Count does not
// sort its k-mer stream this way: it tallies each top-digit bucket in a
// hash table (tally.go) and sorts only the kept k-mers, falling back to
// this kernel only for a bucket whose keys collide past the probe budget,
// and its digit step (split) divides a bucket too long for the tally
// table. SortUint64 sorts the MacroNode keys and the scale-out read ends
// and construction keys on one goroutine: each of those callers is serial
// or already runs one sort per worker.
package kmer

import (
	"math/bits"
	"slices"
	"sync"
)

const (
	digitBits    = 11
	digitBuckets = 1 << digitBits // buckets of the widest digit

	// A (sub-)bucket of at most insertionMax words is finished by
	// insertion sort and one of at most cmpSortMax words by slices.Sort; a
	// longer one is split again on its next digit. The middle band holds
	// most of a k-mer stream after one in-bucket digit: the copies of one
	// k-mer plus a few sequencing-error variants that share its leading
	// bases, which a further digit of a few bits would peel off only a few
	// bits at a time.
	insertionMax = 32
	cmpSortMax   = 256
)

// sorter is one goroutine's bucket-sorting state: a digit table per
// recursion depth and a scratch vector grown to the longest input it has
// held. Sorters come from a sync.Pool, so a caller sorting many small
// inputs, such as one scale-out source after another, reuses the same
// scratch instead of allocating a ping-pong buffer per call.
type sorter struct {
	tabs    []*[digitBuckets]int
	scratch []uint64
}

var sorters = sync.Pool{New: func() any { return new(sorter) }}

// buf returns the sorter's scratch resized to n words.
func (t *sorter) buf(n int) []uint64 {
	if cap(t.scratch) < n {
		t.scratch = make([]uint64, n)
	}
	return t.scratch[:n]
}

// table returns the digit table of recursion depth d.
func (t *sorter) table(d int) *[digitBuckets]int {
	for len(t.tabs) <= d {
		t.tabs = append(t.tabs, new([digitBuckets]int))
	}
	return t.tabs[d]
}

// SortUint64 sorts a ascending, in place. Only an input too long for
// smallSort takes a pooled sorter.
func SortUint64(a []uint64) {
	if len(a) <= cmpSortMax {
		smallSort(a)
		return
	}
	t := sorters.Get().(*sorter)
	t.msd(a, t.buf(len(a)), 0)
	sorters.Put(t)
}

// msd sorts a in place using s, of the same length, as scratch. Its digit
// width follows the length, about four words per sub-bucket. Every level
// consumes at least seven bits, so no input is quadratic.
func (t *sorter) msd(a, s []uint64, depth int) {
	if len(a) <= cmpSortMax {
		smallSort(a)
		return
	}
	c := t.split(a, s, depth, 4)
	if c == nil {
		return // all equal
	}
	// Finish each sub-bucket in s with a's window as its scratch, then
	// copy the sorted run back.
	lo := 0
	for _, hi := range c {
		if hi-lo > 1 {
			t.msd(s[lo:hi], a[lo:hi], depth+1)
		}
		lo = hi
	}
	copy(a, s)
}

// split is one MSD digit step: it scatters a into s, of the same length,
// by a digit just below the highest bit on which the words of a differ, so
// bits they share cost nothing, and returns the sub-bucket ends in s,
// ascending. The digit's width aims at about per words per sub-bucket. It
// returns nil, leaving s untouched, when every word of a is equal. The
// ends live in the digit table of depth, valid until the next split at
// that depth.
func (t *sorter) split(a, s []uint64, depth, per int) []int {
	var diff uint64
	for _, x := range a {
		diff |= x ^ a[0]
	}
	if diff == 0 {
		return nil
	}
	hb := bits.Len64(diff)
	d := min(max(bits.Len(uint(len(a)/per)), 1), digitBits, hb)
	shift := uint(hb - d)
	mask := uint64(1)<<d - 1
	c := t.table(depth)[:1<<d]
	clear(c)
	for _, x := range a {
		c[x>>shift&mask]++
	}
	sum := 0
	for i, k := range c {
		c[i] = sum
		sum += k
	}
	for _, x := range a {
		b := x >> shift & mask
		s[c[b]] = x
		c[b]++
	}
	return c
}

// smallSort sorts a (sub-)bucket of at most cmpSortMax words.
func smallSort(a []uint64) {
	if len(a) > insertionMax {
		slices.Sort(a)
		return
	}
	insertionSort(a)
}

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for j > 0 && a[j-1] > x {
			a[j] = a[j-1]
			j--
		}
		a[j] = x
	}
}

// PrefixCursors turns per-writer bucket counts, cur[wi*nb+b], into scatter
// cursors in place and returns the total count; Count's writers are its
// workers, the scale-out count's its sources. Buckets are laid out in
// order, and within a bucket writer wi's words precede writer wi+1's, so
// once every writer has scattered, the last writer's cursors stand at the
// bucket ends.
func PrefixCursors(cur []int, nb int) int {
	w := len(cur) / nb
	sum := 0
	for b := 0; b < nb; b++ {
		for wi := 0; wi < w; wi++ {
			c := cur[wi*nb+b]
			cur[wi*nb+b] = sum
			sum += c
		}
	}
	return sum
}

// BucketSpan returns the bounds of bucket b given the bucket ends.
func BucketSpan(ends []int, b int) (lo, hi int) {
	if b > 0 {
		lo = ends[b-1]
	}
	return lo, ends[b]
}
