package dna

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randSeqString(r *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(Alphabet[r.Intn(4)])
	}
	return sb.String()
}

func TestBaseFromByte(t *testing.T) {
	cases := []struct {
		in   byte
		want Base
		ok   bool
	}{
		{'A', A, true}, {'C', C, true}, {'T', T, true}, {'G', G, true},
		{'a', A, true}, {'g', G, true}, {'N', 0, false}, {'x', 0, false},
	}
	for _, tc := range cases {
		got, ok := BaseFromByte(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BaseFromByte(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBaseComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, T: A, C: G, G: C}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("Complement(%c) = %c want %c", b.Byte(), got.Byte(), want.Byte())
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := randSeqString(r, r.Intn(100))
		q, err := ParseSeq(s)
		if err != nil {
			t.Fatalf("ParseSeq(%q): %v", s, err)
		}
		if q.String() != s {
			t.Fatalf("round trip %q -> %q", s, q.String())
		}
		if q.Len() != len(s) {
			t.Fatalf("Len=%d want %d", q.Len(), len(s))
		}
	}
}

func TestSeqParseInvalid(t *testing.T) {
	if _, err := ParseSeq("ACGTN"); err == nil {
		t.Fatal("expected error for N")
	}
}

func TestSeqAppendMatchesString(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		s := randSeqString(r, r.Intn(80))
		var q Seq
		for i := 0; i < len(s); i++ {
			b, _ := BaseFromByte(s[i])
			q = q.Append(b)
		}
		if q.String() != s {
			t.Fatalf("append-built %q want %q", q.String(), s)
		}
	}
}

func TestSeqAppendDoesNotAliasDestructively(t *testing.T) {
	base := MustParseSeq("ACGT")
	x := base.Append(A)
	y := base.Append(G)
	if x.String() != "ACGTA" || y.String() != "ACGTG" {
		t.Fatalf("aliasing: x=%s y=%s", x, y)
	}
	if base.String() != "ACGT" {
		t.Fatalf("receiver mutated: %s", base)
	}
}

func TestSeqConcatSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := randSeqString(r, r.Intn(70))
		b := randSeqString(r, r.Intn(70))
		qa, qb := MustParseSeq(a), MustParseSeq(b)
		cat := qa.Concat(qb)
		if cat.String() != a+b {
			t.Fatalf("concat %q+%q = %q", a, b, cat.String())
		}
		if len(a+b) > 0 {
			lo := r.Intn(len(a + b))
			hi := lo + r.Intn(len(a+b)-lo)
			if got := cat.Slice(lo, hi).String(); got != (a + b)[lo:hi] {
				t.Fatalf("slice[%d:%d] = %q want %q", lo, hi, got, (a + b)[lo:hi])
			}
		}
	}
}

// TestSeqConcatSliceWordBoundaries drives the word-level blit paths of
// Concat and Slice across multi-word sequences and every alignment of the
// 32-base word boundary, including operands whose packed tail words carry
// garbage bits (allowed by Equal's masking, so the blits must mask too).
func TestSeqConcatSliceWordBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a := randSeqString(r, r.Intn(200))
		b := randSeqString(r, r.Intn(200))
		qa, qb := MustParseSeq(a), MustParseSeq(b)
		// Poison the unused tail bits: results must be unaffected.
		if rem := qa.n % 32; rem != 0 {
			qa.w[len(qa.w)-1] |= ^((uint64(1) << (2 * uint(rem))) - 1)
		}
		if rem := qb.n % 32; rem != 0 {
			qb.w[len(qb.w)-1] |= ^((uint64(1) << (2 * uint(rem))) - 1)
		}
		cat := qa.Concat(qb)
		if cat.String() != a+b {
			t.Fatalf("concat len %d+%d diverges from reference", len(a), len(b))
		}
		if !cat.Equal(MustParseSeq(a + b)) {
			t.Fatalf("concat len %d+%d not Equal to parsed reference", len(a), len(b))
		}
		if n := len(a + b); n > 0 {
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo)
			sl := cat.Slice(lo, hi)
			if sl.String() != (a + b)[lo:hi] {
				t.Fatalf("slice[%d:%d] diverges from reference", lo, hi)
			}
			// The fresh slice must have clean tail bits (other word-level
			// consumers rely on the masking).
			if rem := sl.n % 32; rem != 0 && len(sl.w) > 0 {
				if sl.w[len(sl.w)-1]&^((uint64(1)<<(2*uint(rem)))-1) != 0 {
					t.Fatalf("slice[%d:%d] left garbage tail bits", lo, hi)
				}
			}
		}
	}
}

func TestSeqCmpMatchesStringCompare(t *testing.T) {
	// Under the custom alphabet order A<C<T<G, Seq.Cmp must match string
	// comparison of the code-mapped strings.
	mapCode := func(s string) string {
		out := make([]byte, len(s))
		for i := 0; i < len(s); i++ {
			b, _ := BaseFromByte(s[i])
			out[i] = byte(b)
		}
		return string(out)
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		a := randSeqString(r, r.Intn(20))
		b := randSeqString(r, r.Intn(20))
		got := MustParseSeq(a).Cmp(MustParseSeq(b))
		want := strings.Compare(mapCode(a), mapCode(b))
		if got != want {
			t.Fatalf("Cmp(%q,%q)=%d want %d", a, b, got, want)
		}
	}
}

func TestSeqEqualAndHash(t *testing.T) {
	a := MustParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGTACG")
	b := MustParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGTACG")
	c := MustParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGTACT")
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("equal sequences must be Equal and hash identically")
	}
	if a.Equal(c) {
		t.Fatal("unequal sequences reported Equal")
	}
}

func TestReverseComplement(t *testing.T) {
	q := MustParseSeq("AACGTG")
	if got := q.ReverseComplement().String(); got != "CACGTT" {
		t.Fatalf("RC = %q want CACGTT", got)
	}
	// Property: RC(RC(x)) == x.
	f := func(n uint8) bool {
		r := rand.New(rand.NewSource(int64(n)))
		s := MustParseSeq(randSeqString(r, int(n)%64))
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedBytes(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {31, 8}, {32, 8}, {33, 9}} {
		r := rand.New(rand.NewSource(int64(tc.n)))
		q := MustParseSeq(randSeqString(r, tc.n))
		if got := q.PackedBytes(); got != tc.want {
			t.Errorf("PackedBytes(len=%d) = %d want %d", tc.n, got, tc.want)
		}
	}
}

func TestKmerRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(32)
		s := randSeqString(r, k)
		km := MustParseKmer(s)
		if got := km.StringK(k); got != s {
			t.Fatalf("k-mer round trip %q -> %q", s, got)
		}
		if got := km.Seq(k).String(); got != s {
			t.Fatalf("Kmer.Seq %q -> %q", s, got)
		}
	}
}

func TestKmerCompareIsLexicographic(t *testing.T) {
	mapCode := func(s string) string {
		out := make([]byte, len(s))
		for i := 0; i < len(s); i++ {
			b, _ := BaseFromByte(s[i])
			out[i] = byte(b)
		}
		return string(out)
	}
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		k := 1 + r.Intn(32)
		a, b := randSeqString(r, k), randSeqString(r, k)
		ka, kb := MustParseKmer(a), MustParseKmer(b)
		wantLess := mapCode(a) < mapCode(b)
		if (ka < kb) != wantLess {
			t.Fatalf("kmer order mismatch %q vs %q", a, b)
		}
	}
}

func TestKmerRoll(t *testing.T) {
	const k = 5
	s := "ACGTTGCA"
	km := MustParseKmer(s[:k])
	for i := k; i < len(s); i++ {
		b, _ := BaseFromByte(s[i])
		km = km.Roll(k, b)
		if got, want := km.StringK(k), s[i-k+1:i+1]; got != want {
			t.Fatalf("roll at %d: %q want %q", i, got, want)
		}
	}
}

func TestKmerPrefixSuffixFirstLast(t *testing.T) {
	km := MustParseKmer("AGTCA")
	if got := km.Prefix().StringK(4); got != "AGTC" {
		t.Errorf("Prefix = %q", got)
	}
	if got := km.Suffix(5).StringK(4); got != "GTCA" {
		t.Errorf("Suffix = %q", got)
	}
	if km.First(5) != A || km.Last() != A {
		t.Errorf("First/Last mismatch")
	}
	if km.At(5, 1) != G || km.At(5, 3) != C {
		t.Errorf("At mismatch")
	}
}

// TestNeighborViaPrefixSuffix verifies the compaction neighbor arithmetic
// against plain string manipulation, for extension lengths both below and
// above k-1 (the paper's Fig. 4(b) example included).
func TestNeighborViaPrefixSuffix(t *testing.T) {
	// Paper example (Fig. 4b): node GTCA (k-1 = 4), prefixes A and CA ->
	// preceding nodes AGTC and CAGT; suffixes T,G -> succeeding TCAT, TCAG.
	key := MustParseKmer("GTCA")
	if got := NeighborViaPrefix(key, 4, MustParseSeq("A")).StringK(4); got != "AGTC" {
		t.Fatalf("prefix A neighbor = %q want AGTC", got)
	}
	if got := NeighborViaPrefix(key, 4, MustParseSeq("CA")).StringK(4); got != "CAGT" {
		t.Fatalf("prefix CA neighbor = %q want CAGT", got)
	}
	if got := NeighborViaSuffix(key, 4, MustParseSeq("T")).StringK(4); got != "TCAT" {
		t.Fatalf("suffix T neighbor = %q want TCAT", got)
	}
	if got := NeighborViaSuffix(key, 4, MustParseSeq("G")).StringK(4); got != "TCAG" {
		t.Fatalf("suffix G neighbor = %q want TCAG", got)
	}

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k1 := 2 + r.Intn(30)
		keyS := randSeqString(r, k1)
		extLen := 1 + r.Intn(2*k1)
		ext := randSeqString(r, extLen)
		key := MustParseKmer(keyS)

		wantP := (ext + keyS)[:k1]
		if got := NeighborViaPrefix(key, k1, MustParseSeq(ext)).StringK(k1); got != wantP {
			t.Fatalf("NeighborViaPrefix(%q,%q) = %q want %q", keyS, ext, got, wantP)
		}
		cat := keyS + ext
		wantS := cat[len(ext):]
		if got := NeighborViaSuffix(key, k1, MustParseSeq(ext)).StringK(k1); got != wantS {
			t.Fatalf("NeighborViaSuffix(%q,%q) = %q want %q", keyS, ext, got, wantS)
		}
	}
}

func TestKmerFromSeqOffset(t *testing.T) {
	q := MustParseSeq("TTACGTGGA")
	if got := KmerFromSeq(q, 2, 5).StringK(5); got != "ACGTG" {
		t.Fatalf("KmerFromSeq = %q want ACGTG", got)
	}
}

// TestAppendTo appends a k-mer to a sequence through the Builder.
func TestAppendTo(t *testing.T) {
	q := MustParseSeq("TT")
	km := MustParseKmer("ACG")
	b := NewBuilder(make([]uint64, 1))
	b.Append(q, 0, q.Len())
	b.AppendKmer(km, 3)
	if got := b.Seq().String(); got != "TTACG" {
		t.Fatalf("AppendTo = %q", got)
	}
}
