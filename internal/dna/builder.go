package dna

import (
	"fmt"
	"math/bits"
)

// Words returns the number of packed words n bases occupy.
func Words(n int) int { return (n + 31) / 32 }

// Builder writes one sequence into caller-owned words, up to 32 bases per
// step, so a sequence spelled from pieces of others costs no intermediate
// copies. Compaction spells all the TransferNode sequences of one
// invalidated node into a single word arena this way.
type Builder struct {
	w []uint64
	n int
}

// NewBuilder returns an empty Builder over w. w must be zero and hold
// Words(n) words for the n bases that will be appended.
func NewBuilder(w []uint64) Builder { return Builder{w: w} }

// Seq returns the bases appended so far. Its storage is clipped to its own
// words, so Seq.Append on the result never writes into words past them.
func (b *Builder) Seq() Seq {
	nw := Words(b.n)
	return Seq{w: b.w[:nw:nw], n: b.n}
}

// put appends the c ≤ 32 bases packed in v (base i in bits [2i, 2i+2),
// zero above base c).
func (b *Builder) put(v uint64, c int) {
	at, off := b.n/32, b.n%32
	b.w[at] |= v << (2 * uint(off))
	if off+c > 32 {
		b.w[at+1] |= v >> (64 - 2*uint(off))
	}
	b.n += c
}

// Append appends bases [lo, hi) of q.
func (b *Builder) Append(q Seq, lo, hi int) {
	if lo < 0 || hi > q.n || lo > hi {
		panic(fmt.Sprintf("dna: range [%d,%d) out of range [0,%d]", lo, hi, q.n))
	}
	wi, sh := lo/32, uint(2*(lo%32))
	for n := hi - lo; n > 0; n -= 32 {
		v := q.w[wi] >> sh
		if sh != 0 && wi+1 < len(q.w) {
			v |= q.w[wi+1] << (64 - sh)
		}
		wi++
		c := min(n, 32)
		if c < 32 {
			v &= (uint64(1) << (2 * uint(c))) - 1
		}
		b.put(v, c)
	}
}

// AppendJoined appends bases [lo, hi) of x+y without building x+y.
func (b *Builder) AppendJoined(x, y Seq, lo, hi int) {
	if lo < 0 || hi > x.n+y.n || lo > hi {
		panic(fmt.Sprintf("dna: range [%d,%d) out of range [0,%d]", lo, hi, x.n+y.n))
	}
	if lo < x.n {
		b.Append(x, lo, min(hi, x.n))
	}
	if hi > x.n {
		b.Append(y, max(lo-x.n, 0), hi-x.n)
	}
}

// AppendKmer appends the k bases of km.
func (b *Builder) AppendKmer(km Kmer, k int) {
	if k < 0 || k > MaxK {
		panic(fmt.Sprintf("dna: k=%d out of range [0,32]", k))
	}
	if k == 0 {
		return
	}
	// Reversing the word moves the k-mer's 2k bits to the top, base 0
	// lowest, with the two bits of each base swapped; swapping them back
	// and shifting down yields the Seq layout.
	v := bits.Reverse64(uint64(km))
	v = (v>>1)&0x5555555555555555 | (v&0x5555555555555555)<<1
	b.put(v>>(64-2*uint(k)), k)
}

// JoinRange returns bases [lo, hi) of x+y as a fresh sequence, without
// building x+y.
func JoinRange(x, y Seq, lo, hi int) Seq {
	b := NewBuilder(make([]uint64, Words(hi-lo)))
	b.AppendJoined(x, y, lo, hi)
	return b.Seq()
}
