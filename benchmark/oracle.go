package main

import (
	"slices"

	"nmppak/internal/dna"
)

// kmerOracle measures how much of a reference genome a contig set
// recovers: the share of the reference's distinct canonical k-mers (the
// smaller of a k-mer and its reverse complement) found in the contigs. It
// is the benchmark's own, so a change to the metrics package cannot move
// the check, and it is strand-aware, so a correct reverse-complement
// contig counts.
type kmerOracle struct {
	k   int
	ref []uint64 // sorted distinct canonical k-mers of the reference
}

func newKmerOracle(ref []dna.Seq, k int) *kmerOracle {
	var all []uint64
	for _, r := range ref {
		all = appendCanonical(all, r, k)
	}
	slices.Sort(all)
	return &kmerOracle{k: k, ref: slices.Compact(all)}
}

// recall returns the share of reference k-mers present in contigs.
func (o *kmerOracle) recall(contigs []dna.Seq) float64 {
	if len(o.ref) == 0 {
		return 0
	}
	found := make([]bool, len(o.ref))
	hits := 0
	var buf []uint64
	for _, c := range contigs {
		buf = appendCanonical(buf[:0], c, o.k)
		for _, km := range buf {
			if i, ok := slices.BinarySearch(o.ref, km); ok && !found[i] {
				found[i] = true
				hits++
			}
		}
	}
	return float64(hits) / float64(len(o.ref))
}

// appendCanonical appends the canonical code of every k-mer of s (k <= 31,
// two bits per base) to dst.
func appendCanonical(dst []uint64, s dna.Seq, k int) []uint64 {
	mask := uint64(1)<<(2*k) - 1
	var fwd, rev uint64
	for i := 0; i < s.Len(); i++ {
		b := s.At(i)
		fwd = (fwd<<2 | uint64(b)) & mask
		rev = rev>>2 | uint64(b.Complement())<<(2*(k-1))
		if i >= k-1 {
			dst = append(dst, min(fwd, rev))
		}
	}
	return dst
}
