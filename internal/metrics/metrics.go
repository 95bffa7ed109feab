// Package metrics computes assembly quality metrics. The paper's Table 1
// uses N50, "the length of the smallest contig such that contigs of this
// length or longer cover at least 50% of the total assembly" (QUAST's
// definition).
package metrics

import (
	"sort"

	"nmppak/internal/dna"
)

// Summary aggregates assembly statistics.
type Summary struct {
	Contigs    int
	TotalBases int64
	LongestLen int
	N50        int
	L50        int // number of contigs at or above the N50 length
	NG50       int // N50 against the reference genome length (0 if unknown)
	MeanLen    float64
	GenomeFrac float64 // fraction of reference 31-mers present in contigs
	RefLength  int64
}

// Lengths extracts contig lengths.
func Lengths(contigs []dna.Seq) []int {
	out := make([]int, len(contigs))
	for i, c := range contigs {
		out[i] = c.Len()
	}
	return out
}

// N50 computes the N50 of a set of lengths (0 for an empty set).
func N50(lengths []int) int {
	n50, _ := nxx(lengths, totalOf(lengths), 50)
	return n50
}

// NG50 computes N50 against a reference length instead of the assembly
// total.
func NG50(lengths []int, refLen int64) int {
	ng50, _ := nxx(lengths, refLen, 50)
	return ng50
}

func totalOf(lengths []int) int64 {
	var t int64
	for _, l := range lengths {
		t += int64(l)
	}
	return t
}

// nxx returns the smallest length such that contigs of at least that length
// cover xx% of base, and the number of contigs used.
func nxx(lengths []int, base int64, xx int) (int, int) {
	if len(lengths) == 0 || base <= 0 {
		return 0, 0
	}
	sorted := append([]int(nil), lengths...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	target := (base*int64(xx) + 99) / 100
	var cum int64
	for i, l := range sorted {
		cum += int64(l)
		if cum >= target {
			return l, i + 1
		}
	}
	return sorted[len(sorted)-1], len(sorted)
}

// Summarize computes the full metric set. ref may be nil (reference-based
// metrics are then zero).
func Summarize(contigs []dna.Seq, ref []dna.Seq) Summary {
	lengths := Lengths(contigs)
	s := Summary{Contigs: len(contigs), TotalBases: totalOf(lengths)}
	if len(lengths) > 0 {
		s.N50, s.L50 = nxx(lengths, s.TotalBases, 50)
		for _, l := range lengths {
			if l > s.LongestLen {
				s.LongestLen = l
			}
		}
		s.MeanLen = float64(s.TotalBases) / float64(len(lengths))
	}
	if len(ref) > 0 {
		for _, r := range ref {
			s.RefLength += int64(r.Len())
		}
		s.NG50 = NG50(lengths, s.RefLength)
		s.GenomeFrac = genomeFraction(contigs, ref, 31)
	}
	return s
}

// genomeFraction approximates reference coverage as the fraction of
// reference k-mers present in the contigs (a stdlib-only stand-in for
// QUAST's alignment-based genome fraction). A contig may spell either
// strand of the reference, so both its strands are indexed.
func genomeFraction(contigs, ref []dna.Seq, k int) float64 {
	have := make(map[dna.Kmer]struct{})
	for _, c := range contigs {
		if c.Len() < k {
			continue
		}
		for _, s := range []dna.Seq{c, c.ReverseComplement()} {
			km := dna.KmerFromSeq(s, 0, k)
			have[km] = struct{}{}
			for i := k; i < s.Len(); i++ {
				km = km.Roll(k, s.At(i))
				have[km] = struct{}{}
			}
		}
	}
	var total, hit int64
	seen := make(map[dna.Kmer]struct{})
	for _, r := range ref {
		if r.Len() < k {
			continue
		}
		km := dna.KmerFromSeq(r, 0, k)
		for i := k - 1; ; i++ {
			if _, dup := seen[km]; !dup {
				seen[km] = struct{}{}
				total++
				if _, ok := have[km]; ok {
					hit++
				}
			}
			if i+1 >= r.Len() {
				break
			}
			km = km.Roll(k, r.At(i+1))
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
