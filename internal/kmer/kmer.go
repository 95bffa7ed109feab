// Package kmer implements k-mer extraction and counting, the first stage of
// the PaKman pipeline (Fig. 2 A/B).
//
// Two implementations are provided:
//
//   - Count: the paper's refined algorithm (§4.5), built around one
//     vector. (a) Parallel sliding-window extraction over per-worker read
//     ranges, rolling each read 2 bits at a time from its packed words,
//     run twice: a counting pass sizes every top-digit bucket, and (b) the
//     extraction pass writes each k-mer straight into its slot of one
//     exact-size, preallocated vector, so the merge of per-worker vectors
//     is the top-digit partition. (c) Where the paper's parallel sort
//     finishes each bucket, each bucket is instead tallied in cache in a
//     bounded hash table (tally.go), its pruned k-mers counted straight
//     from the table, and only its kept k-mers sorted; the kept counts,
//     prefix-summed, size the result exactly. A bucket too long for the
//     table is split on an MSD digit first, and one whose keys collide
//     past a probe budget is sorted (the MSD kernel in sort.go) instead.
//     This is the path behind the 416× k-mer counting speedup the paper
//     reports; every buffer is sized up front, so the hot loops perform no
//     growth allocations.
//   - CountNaive: the prior-work flow the paper profiles as "W/O SW-opt" —
//     a single growing vector, serial extraction and serial comparison
//     sort.
//
// Counting supports an error-pruning threshold (k-mers observed fewer than
// MinCount times are discarded), the mechanism that links batch size to
// contig quality in Table 1.
package kmer

import (
	"fmt"
	"math/bits"
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/par"
	"nmppak/internal/readsim"
)

// Config controls counting.
type Config struct {
	K        int // k-mer length; the paper uses 32
	Workers  int // parallel workers (<=0: GOMAXPROCS)
	MinCount uint32
}

// Counted is one distinct k-mer with its multiplicity.
type Counted struct {
	Km    dna.Kmer
	Count uint32
}

// Result is the outcome of a counting pass.
type Result struct {
	K     int
	Kmers []Counted // sorted ascending (lexicographic under A<C<T<G)

	TotalExtracted int64 // raw k-mer instances before dedup
	PrunedKinds    int64 // distinct k-mers dropped by MinCount
	PrunedMass     int64 // instances dropped by MinCount
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 2 || c.K > dna.MaxK {
		return fmt.Errorf("kmer: K=%d out of range [2,%d]", c.K, dna.MaxK)
	}
	return nil
}

// Count runs the optimized parallel counting pass over reads.
func Count(reads []readsim.Read, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := par.Threads(cfg.Workers)
	k := cfg.K

	// The top digit is bits [2k-11, 2k) of a k-mer word (all 2k bits
	// when k < 6), so bucket order is ascending word order.
	shift := uint(max(2*k-digitBits, 0))
	nb := 1 << (uint(2*k) - shift)
	mask := dna.KmerMask(k)

	// (a) A counting pass rolls every worker's reads, 2 bits at a time
	// from their packed words, to size the top digit buckets (§4.5 a, b).
	nChunks := max(min(w, len(reads)), 1)
	chunk := (len(reads) + nChunks - 1) / nChunks
	span := func(ci int) []readsim.Read {
		return reads[min(ci*chunk, len(reads)):min((ci+1)*chunk, len(reads))]
	}
	// cur[ci*nb+b] is chunk ci's count of bucket-b k-mers, turned by
	// PrefixCursors into its write cursor.
	cur := make([]int, nChunks*nb)
	par.For(nChunks, w, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			cnt := cur[ci*nb : (ci+1)*nb]
			for _, rd := range span(ci) {
				seq := rd.Seq
				n := seq.Len()
				if n < k {
					continue
				}
				x, word := prime(seq, k)
				for i := k - 1; i < n; i++ {
					if i&31 == 0 {
						word = seq.Word(i >> 5)
					}
					x = (x<<2 | word&3) & mask
					word >>= 2
					cnt[x>>shift]++
				}
			}
		}
	})
	total := PrefixCursors(cur, nb)

	// (b) Extraction rolls the reads again and writes every k-mer straight
	// into its bucket of one exact-size vector: the partition the tally
	// works on costs nothing extra.
	all := make([]uint64, total)
	par.For(nChunks, w, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			pos := cur[ci*nb : (ci+1)*nb]
			for _, rd := range span(ci) {
				seq := rd.Seq
				n := seq.Len()
				if n < k {
					continue
				}
				x, word := prime(seq, k)
				for i := k - 1; i < n; i++ {
					if i&31 == 0 {
						word = seq.Word(i >> 5)
					}
					x = (x<<2 | word&3) & mask
					word >>= 2
					all[pos[x>>shift]] = x
					pos[x>>shift]++
				}
			}
		}
	})

	ends := cur[(nChunks-1)*nb:]
	bucket := func(b int) []uint64 {
		lo, hi := BucketSpan(ends, b)
		return all[lo:hi]
	}

	// (c) Each bucket is tallied in cache, and its head rewritten with the
	// k-mers it keeps, ascending; its kept count, prefix-summed, places it
	// in the exact-size output.
	minCount := max(cfg.MinCount, 1)
	offs := make([]int, nb+1)
	heads := make([]int, nb)
	prunedKinds, prunedMass := tallyBuckets(nb, w, bucket, minCount, heads, offs[1:])
	for b := 0; b < nb; b++ {
		offs[b+1] += offs[b]
	}
	res := &Result{
		K:              k,
		TotalExtracted: int64(total),
		PrunedKinds:    prunedKinds,
		PrunedMass:     prunedMass,
	}
	if kept := offs[nb]; kept > 0 {
		res.Kmers = make([]Counted, kept)
		par.ForIdx(nb, w, func(b int) {
			if lo, hi := offs[b], offs[b+1]; lo < hi {
				readHead(res.Kmers[lo:hi], bucket(b)[:heads[b]], minCount)
			}
		})
	}
	return res, nil
}

// prime rolls the first k-1 bases of seq, at least k long, into x, and
// returns the rest of its first packed word, from base k-1 on. The word
// holds base j in bits [2j, 2j+2) and a rolled k-mer its first base
// highest, so x is the word with its 2-bit groups reversed, shifted down
// to k-1 bases.
func prime(seq dna.Seq, k int) (x, w uint64) {
	w = seq.Word(0)
	x = bits.ReverseBytes64(w)
	x = x>>4&0x0f0f0f0f0f0f0f0f | x&0x0f0f0f0f0f0f0f0f<<4
	x = x>>2&0x3333333333333333 | x&0x3333333333333333<<2
	return x >> uint(2*(33-k)), w >> uint(2*(k-1))
}

// CountNaive runs the unoptimized flow: one growing vector, serial
// everything. Functionally identical to Count.
func CountNaive(reads []readsim.Read, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{K: cfg.K}
	var all []uint64 // deliberately not preallocated
	for _, rd := range reads {
		extractInto(&all, rd.Seq, cfg.K)
	}
	res.TotalExtracted = int64(len(all))
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.Kmers, res.PrunedKinds, res.PrunedMass = dedup(all, cfg.MinCount)
	return res, nil
}

// extractInto appends all k-mers of seq to dst.
func extractInto(dst *[]uint64, seq dna.Seq, k int) {
	n := seq.Len()
	if n < k {
		return
	}
	km := dna.KmerFromSeq(seq, 0, k)
	*dst = append(*dst, uint64(km))
	for i := k; i < n; i++ {
		km = km.Roll(k, seq.At(i))
		*dst = append(*dst, uint64(km))
	}
}

// CountRuns returns the number of distinct values in a sorted slice.
func CountRuns(sorted []uint64) int { return tallyRuns(sorted, 1).kept }

// dedup collapses a sorted k-mer vector into (kmer, count) pairs, applying
// the MinCount pruning threshold. A counting pre-pass sizes the output
// exactly, so the result vector never grows.
func dedup(sorted []uint64, minCount uint32) (out []Counted, prunedKinds, prunedMass int64) {
	minCount = max(minCount, 1)
	t := tallyRuns(sorted, minCount)
	if t.kept > 0 {
		out = appendKept(make([]Counted, 0, t.kept), sorted, minCount)
	}
	return out, t.prunedKinds, t.prunedMass
}

// tally is what dedup keeps and prunes of one sorted run of words.
type tally struct {
	kept                    int
	prunedKinds, prunedMass int64
}

// tallyRuns counts the distinct words of sorted seen at least minCount
// times, and the kinds and instances of the rest.
func tallyRuns(sorted []uint64, minCount uint32) (t tally) {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if c := uint32(j - i); c >= minCount {
			t.kept++
		} else {
			t.prunedKinds++
			t.prunedMass += int64(c)
		}
		i = j
	}
	return t
}

// appendKept appends the (kmer, count) pair of every distinct word of
// sorted seen at least minCount times to out.
func appendKept(out []Counted, sorted []uint64, minCount uint32) []Counted {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if c := uint32(j - i); c >= minCount {
			out = append(out, Counted{Km: dna.Kmer(sorted[i]), Count: c})
		}
		i = j
	}
	return out
}
