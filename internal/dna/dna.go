// Package dna provides 2-bit packed DNA sequence and k-mer primitives.
//
// The base encoding follows the paper's Fig. 4 ordering (A=0, C=1, T=2,
// G=3), so that integer comparison of packed values equals lexicographic
// comparison under that alphabet order. K-mers of up to 32 bases pack into a
// single uint64 MSB-first: the first base occupies the highest-order bit
// pair, which preserves lexicographic order under uint64 comparison for
// equal-length k-mers.
package dna

import (
	"fmt"
	"strings"
)

// Base is a 2-bit encoded nucleotide: A=0, C=1, T=2, G=3 (paper ordering).
type Base uint8

// Nucleotide codes in the paper's comparison order.
const (
	A Base = 0
	C Base = 1
	T Base = 2
	G Base = 3
)

// Alphabet lists the base letters indexed by their code.
const Alphabet = "ACTG"

// baseOf maps ASCII to Base; 0xFF marks invalid letters.
var baseOf [256]uint8

func init() {
	for i := range baseOf {
		baseOf[i] = 0xFF
	}
	for code, letter := range []byte(Alphabet) {
		baseOf[letter] = uint8(code)
		baseOf[letter|0x20] = uint8(code) // lowercase
	}
}

// BaseFromByte decodes an ASCII nucleotide letter. ok is false for letters
// outside ACGT (e.g. the ambiguity code N).
func BaseFromByte(b byte) (Base, bool) {
	v := baseOf[b]
	return Base(v), v != 0xFF
}

// Byte returns the ASCII letter for b.
func (b Base) Byte() byte { return Alphabet[b&3] }

// Complement returns the Watson-Crick complement of b.
func (b Base) Complement() Base {
	// A<->T (0<->2), C<->G (1<->3): xor with 2 under this encoding.
	return b ^ 2
}

// Seq is an immutable-by-convention 2-bit packed DNA sequence of arbitrary
// length. Base i is stored in bits [2*(i%32), 2*(i%32)+2) of word i/32.
// The zero value is the empty sequence.
type Seq struct {
	w []uint64
	n int
}

// ParseSeq builds a Seq from an ASCII string; it returns an error on the
// first non-ACGT letter.
func ParseSeq(s string) (Seq, error) {
	q := Seq{w: make([]uint64, (len(s)+31)/32)}
	for i := 0; i < len(s); i++ {
		b, ok := BaseFromByte(s[i])
		if !ok {
			return Seq{}, fmt.Errorf("dna: invalid base %q at offset %d", s[i], i)
		}
		q.w[i/32] |= uint64(b) << (2 * uint(i%32))
	}
	q.n = len(s)
	return q, nil
}

// MustParseSeq is ParseSeq that panics on error; intended for tests and
// literals.
func MustParseSeq(s string) Seq {
	q, err := ParseSeq(s)
	if err != nil {
		panic(err)
	}
	return q
}

// FromBases builds a Seq from a base slice.
func FromBases(bs []Base) Seq {
	q := Seq{w: make([]uint64, (len(bs)+31)/32), n: len(bs)}
	for i, b := range bs {
		q.w[i/32] |= uint64(b&3) << (2 * uint(i%32))
	}
	return q
}

// Len returns the number of bases.
func (q Seq) Len() int { return q.n }

// At returns base i; it panics if i is out of range.
func (q Seq) At(i int) Base {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("dna: index %d out of range [0,%d)", i, q.n))
	}
	return Base(q.w[i/32] >> (2 * uint(i%32)) & 3)
}

// Word returns packed word i: bases [32i, 32i+32), base 32i+j in bits
// [2j, 2j+2). Bits past the last base are unspecified. A loop over every
// base reads a word per 32 bases instead of indexing each one.
func (q Seq) Word(i int) uint64 { return q.w[i] }

// String renders the sequence as ASCII letters.
func (q Seq) String() string {
	var sb strings.Builder
	sb.Grow(q.n)
	for i := 0; i < q.n; i++ {
		sb.WriteByte(q.At(i).Byte())
	}
	return sb.String()
}

// Append returns a new sequence equal to q with b appended. The receiver is
// not modified; storage is shared only when safe (append semantics).
func (q Seq) Append(b Base) Seq {
	out := Seq{n: q.n + 1}
	if q.n%32 == 0 {
		out.w = append(q.w[:len(q.w):len(q.w)], uint64(b&3))
	} else {
		out.w = append([]uint64(nil), q.w...)
		out.w[q.n/32] |= uint64(b&3) << (2 * uint(q.n%32))
	}
	return out
}

// Concat returns the concatenation q+r as a fresh sequence.
func (q Seq) Concat(r Seq) Seq {
	out := Seq{w: make([]uint64, (q.n+r.n+31)/32), n: q.n + r.n}
	copy(out.w, q.w[:(q.n+31)/32])
	if rem := q.n % 32; rem != 0 {
		out.w[q.n/32] &= (uint64(1) << (2 * uint(rem))) - 1
	}
	blitPacked(out.w, q.n, r.w, r.n)
	return out
}

// blitPacked ORs the first n bases of src into dst starting at base
// position `at`, whole words at a time. dst must be zero from bit 2*at
// on; bits of src at or past 2*n may hold garbage (they are masked off).
func blitPacked(dst []uint64, at int, src []uint64, n int) {
	if n == 0 {
		return
	}
	sw := (n + 31) / 32
	tail := ^uint64(0)
	if rem := n % 32; rem != 0 {
		tail = (uint64(1) << (2 * uint(rem))) - 1
	}
	wi, off := at/32, uint(2*(at%32))
	for i := 0; i < sw; i++ {
		v := src[i]
		if i == sw-1 {
			v &= tail
		}
		dst[wi+i] |= v << off
		if off != 0 && wi+i+1 < len(dst) {
			dst[wi+i+1] |= v >> (64 - off)
		}
	}
}

// Slice returns the subsequence [lo, hi) as a fresh sequence.
func (q Seq) Slice(lo, hi int) Seq {
	if lo < 0 || hi > q.n || lo > hi {
		panic(fmt.Sprintf("dna: slice [%d,%d) out of range [0,%d]", lo, hi, q.n))
	}
	n := hi - lo
	out := Seq{w: make([]uint64, (n+31)/32), n: n}
	if n == 0 {
		return out
	}
	wi, shift := lo/32, uint(2*(lo%32))
	if shift == 0 {
		copy(out.w, q.w[wi:wi+len(out.w)])
	} else {
		for i := range out.w {
			v := q.w[wi+i] >> shift
			if wi+i+1 < len(q.w) {
				v |= q.w[wi+i+1] << (64 - shift)
			}
			out.w[i] = v
		}
	}
	if rem := n % 32; rem != 0 {
		out.w[len(out.w)-1] &= (uint64(1) << (2 * uint(rem))) - 1
	}
	return out
}

// Equal reports whether q and r hold the same bases.
func (q Seq) Equal(r Seq) bool {
	if q.n != r.n {
		return false
	}
	full := q.n / 32
	for i := 0; i < full; i++ {
		if q.w[i] != r.w[i] {
			return false
		}
	}
	if rem := q.n % 32; rem != 0 {
		mask := (uint64(1) << (2 * uint(rem))) - 1
		if q.w[full]&mask != r.w[full]&mask {
			return false
		}
	}
	return true
}

// Cmp compares q and r lexicographically under the A<C<T<G order, returning
// -1, 0 or +1. A proper prefix sorts before its extensions.
func (q Seq) Cmp(r Seq) int {
	n := q.n
	if r.n < n {
		n = r.n
	}
	for i := 0; i < n; i++ {
		a, b := q.At(i), r.At(i)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	switch {
	case q.n < r.n:
		return -1
	case q.n > r.n:
		return 1
	}
	return 0
}

// PackedBytes returns the number of bytes the packed representation
// occupies (4 bases per byte, rounded up). Used by the memory-footprint and
// trace models.
func (q Seq) PackedBytes() int { return (q.n + 3) / 4 }

// ReverseComplement returns the reverse complement of q.
func (q Seq) ReverseComplement() Seq {
	out := Seq{w: make([]uint64, (q.n+31)/32), n: q.n}
	for i := 0; i < q.n; i++ {
		j := q.n - 1 - i
		out.w[j/32] |= uint64(q.At(i).Complement()) << (2 * uint(j%32))
	}
	return out
}

// Bases returns the sequence as a base slice.
func (q Seq) Bases() []Base {
	out := make([]Base, q.n)
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

// Hash returns a 64-bit FNV-1a style hash of the packed content, suitable
// for sharding. Sequences that are Equal hash identically.
func (q Seq) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ uint64(q.n)
	full := q.n / 32
	for i := 0; i < full; i++ {
		h = (h ^ q.w[i]) * prime
	}
	if rem := q.n % 32; rem != 0 {
		mask := (uint64(1) << (2 * uint(rem))) - 1
		h = (h ^ (q.w[full] & mask)) * prime
	}
	return h
}
