package metrics

import (
	"testing"

	"nmppak/internal/dna"
)

func TestN50Known(t *testing.T) {
	// Classic example: lengths 80,70,50,40,30,20 total 290; half = 145;
	// 80+70=150 >= 145 -> N50 = 70, L50 = 2.
	lengths := []int{80, 70, 50, 40, 30, 20}
	if got := N50(lengths); got != 70 {
		t.Fatalf("N50 = %d want 70", got)
	}
	_, l50 := nxx(lengths, totalOf(lengths), 50)
	if l50 != 2 {
		t.Fatalf("L50 = %d want 2", l50)
	}
}

func TestN50SingleContig(t *testing.T) {
	if got := N50([]int{1234}); got != 1234 {
		t.Fatalf("N50 = %d", got)
	}
}

func TestN50Empty(t *testing.T) {
	if got := N50(nil); got != 0 {
		t.Fatalf("N50(nil) = %d", got)
	}
}

func TestN50EqualContigs(t *testing.T) {
	if got := N50([]int{100, 100, 100, 100}); got != 100 {
		t.Fatalf("N50 = %d", got)
	}
}

func TestNG50UsesReference(t *testing.T) {
	// Assembly shorter than reference: NG50 < N50.
	lengths := []int{100, 50}
	if n := N50(lengths); n != 100 {
		t.Fatalf("N50 = %d", n)
	}
	// Reference 400: need >= 200 covered; 100+50=150 < 200 -> NG50 falls
	// to the last contig.
	if ng := NG50(lengths, 400); ng != 50 {
		t.Fatalf("NG50 = %d want 50", ng)
	}
}

func TestSummarize(t *testing.T) {
	contigs := []dna.Seq{
		dna.MustParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), // 40
		dna.MustParseSeq("TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA"),         // 32
	}
	s := Summarize(contigs, nil)
	if s.Contigs != 2 || s.TotalBases != 72 || s.LongestLen != 40 {
		t.Fatalf("summary %+v", s)
	}
	if s.N50 != 40 {
		t.Fatalf("N50 = %d", s.N50)
	}
	if s.MeanLen != 36 {
		t.Fatalf("MeanLen = %v", s.MeanLen)
	}
}

func TestGenomeFraction(t *testing.T) {
	ref := dna.MustParseSeq("ACGTTGCAACGGTCATTGCCAGTACCATGGCATCAGTTACGGATCGATTA")
	full := Summarize([]dna.Seq{ref}, []dna.Seq{ref})
	if full.GenomeFrac != 1.0 {
		t.Fatalf("self coverage = %v want 1", full.GenomeFrac)
	}
	half := Summarize([]dna.Seq{ref.Slice(0, 40)}, []dna.Seq{ref})
	if half.GenomeFrac >= 1.0 || half.GenomeFrac <= 0.2 {
		t.Fatalf("partial coverage = %v", half.GenomeFrac)
	}
	none := Summarize(nil, []dna.Seq{ref})
	if none.GenomeFrac != 0 {
		t.Fatalf("empty coverage = %v", none.GenomeFrac)
	}
}

// TestGenomeFractionReverseStrand: a contig spelling the reference's
// reverse complement covers the whole reference.
func TestGenomeFractionReverseStrand(t *testing.T) {
	ref := dna.MustParseSeq("ACGTTGCAACGGTCATTGCCAGTACCATGGCATCAGTTACGGATCGATTA")
	rc := Summarize([]dna.Seq{ref.ReverseComplement()}, []dna.Seq{ref})
	if rc.GenomeFrac != 1.0 {
		t.Fatalf("reverse-strand coverage = %v want 1", rc.GenomeFrac)
	}
}

func TestLengths(t *testing.T) {
	got := Lengths([]dna.Seq{dna.MustParseSeq("ACG"), dna.MustParseSeq("TTTTT")})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Lengths = %v", got)
	}
}
