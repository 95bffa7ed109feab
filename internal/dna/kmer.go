package dna

import "fmt"

// MaxK is the largest k-mer length representable in a single Kmer word.
const MaxK = 32

// Kmer is a fixed-length DNA word of up to 32 bases packed MSB-first into a
// uint64: the first base occupies bits [2k-2, 2k) so that uint64 comparison
// of two k-mers of equal k is lexicographic comparison under A<C<T<G. The
// length k is carried externally (it is uniform across a graph).
type Kmer uint64

// KmerMask returns the mask covering the low 2k bits of a k-mer.
func KmerMask(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 32 {
		return ^uint64(0)
	}
	return (uint64(1) << (2 * uint(k))) - 1
}

// KmerFromSeq packs bases [off, off+k) of q into a Kmer.
func KmerFromSeq(q Seq, off, k int) Kmer {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("dna: k=%d out of range [1,32]", k))
	}
	var v uint64
	for i := 0; i < k; i++ {
		v = v<<2 | uint64(q.At(off+i))
	}
	return Kmer(v)
}

// ParseKmer packs an ASCII string of length ≤32 into a Kmer.
func ParseKmer(s string) (Kmer, error) {
	if len(s) > MaxK {
		return 0, fmt.Errorf("dna: k-mer %q longer than %d", s, MaxK)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		b, ok := BaseFromByte(s[i])
		if !ok {
			return 0, fmt.Errorf("dna: invalid base %q in k-mer", s[i])
		}
		v = v<<2 | uint64(b)
	}
	return Kmer(v), nil
}

// MustParseKmer is ParseKmer that panics on error.
func MustParseKmer(s string) Kmer {
	km, err := ParseKmer(s)
	if err != nil {
		panic(err)
	}
	return km
}

// Roll slides the window one base to the right: it drops the leftmost base
// of a k-mer and appends b.
func (km Kmer) Roll(k int, b Base) Kmer {
	return Kmer((uint64(km)<<2 | uint64(b&3)) & KmerMask(k))
}

// At returns base i (0 = leftmost) of a k-mer of length k.
func (km Kmer) At(k, i int) Base {
	return Base(uint64(km) >> (2 * uint(k-1-i)) & 3)
}

// First returns the leftmost base of a k-mer of length k.
func (km Kmer) First(k int) Base { return km.At(k, 0) }

// Last returns the rightmost base.
func (km Kmer) Last() Base { return Base(km & 3) }

// Prefix returns the leading (k-1)-mer of a k-mer of length k.
func (km Kmer) Prefix() Kmer { return km >> 2 }

// Suffix returns the trailing (k-1)-mer of a k-mer of length k.
func (km Kmer) Suffix(k int) Kmer { return km & Kmer(KmerMask(k-1)) }

// StringK renders a k-mer of length k as ASCII letters.
func (km Kmer) StringK(k int) string {
	out := make([]byte, k)
	for i := 0; i < k; i++ {
		out[i] = km.At(k, i).Byte()
	}
	return string(out)
}

// Seq converts a k-mer of length k into a packed Seq.
func (km Kmer) Seq(k int) Seq {
	b := NewBuilder(make([]uint64, Words(k)))
	b.AppendKmer(km, k)
	return b.Seq()
}

// NeighborViaPrefix computes the (k1)-mer of the node reached by following
// prefix extension p backwards from node key (a k1-mer): the first k1 bases
// of p+key. This is the paper's Fig. 4(b) step 1 generalized to multi-base
// extensions accumulated during compaction.
func NeighborViaPrefix(key Kmer, k1 int, p Seq) Kmer {
	lp := p.Len()
	if lp >= k1 {
		return KmerFromSeq(p, 0, k1)
	}
	var top uint64
	for i := 0; i < lp; i++ {
		top = top<<2 | uint64(p.At(i))
	}
	return Kmer((top<<(2*uint(k1-lp)) | uint64(key)>>(2*uint(lp))) & KmerMask(k1))
}

// NeighborViaSuffix computes the (k1)-mer of the node reached by following
// suffix extension s forwards from node key: the last k1 bases of key+s.
func NeighborViaSuffix(key Kmer, k1 int, s Seq) Kmer {
	ls := s.Len()
	if ls >= k1 {
		return KmerFromSeq(s, ls-k1, k1)
	}
	var low uint64
	for i := 0; i < ls; i++ {
		low = low<<2 | uint64(s.At(i))
	}
	return Kmer((uint64(key)<<(2*uint(ls)) | low) & KmerMask(k1))
}
