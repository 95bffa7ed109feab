package dna

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSeq: ParseSeq never panics, fails exactly when some byte is not
// a base BaseFromByte accepts, and on success packs every base in order,
// so String() is the upper-cased input and parses back to an equal Seq.
func FuzzParseSeq(f *testing.F) {
	f.Add("")
	f.Add("ACGT")
	f.Add("acgtACGTnNacgt")
	f.Add(strings.Repeat("GATTACA", 10))
	f.Add("AC\x00GT\xff")
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseSeq(s)
		bad := -1
		for i := 0; i < len(s); i++ {
			if _, ok := BaseFromByte(s[i]); !ok {
				bad = i
				break
			}
		}
		if (err != nil) != (bad >= 0) {
			t.Fatalf("ParseSeq(%q) error %v, first invalid byte at %d", s, err, bad)
		}
		if err != nil {
			return
		}
		if q.Len() != len(s) {
			t.Fatalf("ParseSeq(%q) has %d bases", s, q.Len())
		}
		str := q.String()
		if str != strings.ToUpper(s) {
			t.Fatalf("ParseSeq(%q).String() = %q", s, str)
		}
		r, err := ParseSeq(str)
		if err != nil {
			t.Fatalf("ParseSeq(%q) of a String() output: %v", str, err)
		}
		if !r.Equal(q) || r.String() != str {
			t.Fatalf("round trip of %q gave %q", str, r.String())
		}
	})
}

// FuzzBuilder: a Builder that appends a head, a range [lo, hi) of x+y
// and a k-mer spells the same bases as the Concat/Slice reference, for
// every alignment of the head and range against the 32-base words, with
// garbage in the inputs' unused tail bits, and leaves every bit past its
// last base zero. JoinRange agrees with the same range.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("TTG"), uint16(1), uint16(5), uint8(0), uint64(0x1b), uint8(3))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 40), bytes.Repeat([]byte{3, 0}, 50), uint16(31), uint16(97), uint8(33), uint64(1<<63), uint8(32))
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0), uint8(31), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, xb, yb []byte, lo, hi uint16, head uint8, km uint64, k uint8) {
		x, y := basesOf(xb), basesOf(yb)
		poisonTail(x)
		poisonTail(y)
		n := x.Len() + y.Len()
		l := int(lo) % (n + 1)
		h := l + int(hi)%(n-l+1)
		hd := basesOf(bytes.Repeat([]byte{2, 1, 3}, 30)).Slice(0, int(head)%80)
		kk := int(k) % (MaxK + 1)
		kmer := Kmer(km & KmerMask(kk))

		b := NewBuilder(make([]uint64, Words(hd.Len()+h-l+kk)))
		b.Append(hd, 0, hd.Len())
		b.AppendJoined(x, y, l, h)
		b.AppendKmer(kmer, kk)
		got := b.Seq()

		kref := make([]Base, kk)
		for i := range kref {
			kref[i] = kmer.At(kk, i)
		}
		want := hd.Concat(x.Concat(y).Slice(l, h)).Concat(FromBases(kref))
		if !got.Equal(want) || got.String() != want.String() || got.Len() != want.Len() {
			t.Fatalf("head %d, [%d,%d) of %d+%d, k=%d: built %q want %q", hd.Len(), l, h, x.Len(), y.Len(), kk, got, want)
		}
		if rem := got.n % 32; rem != 0 && got.w[len(got.w)-1]>>(2*uint(rem)) != 0 {
			t.Fatalf("built sequence of %d bases has garbage tail bits", got.n)
		}
		if j := JoinRange(x, y, l, h); !j.Equal(x.Concat(y).Slice(l, h)) {
			t.Fatalf("JoinRange(%d+%d, %d, %d) = %q", x.Len(), y.Len(), l, h, j)
		}
	})
}

// basesOf reads each byte's low two bits as one base.
func basesOf(bs []byte) Seq {
	q := make([]Base, len(bs))
	for i, c := range bs {
		q[i] = Base(c & 3)
	}
	return FromBases(q)
}

// poisonTail sets every unused bit of q's last word; readers must mask.
func poisonTail(q Seq) {
	if rem := q.n % 32; rem != 0 {
		q.w[len(q.w)-1] |= ^((uint64(1) << (2 * uint(rem))) - 1)
	}
}
