package walk

import (
	"math/rand"
	"strings"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

func buildGraph(t testing.TB, k int, minCount uint32, reads []readsim.Read) *pakgraph.Graph {
	t.Helper()
	res, err := kmer.Count(reads, kmer.Config{K: k, MinCount: minCount})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func readsFromStrings(seqs ...string) []readsim.Read {
	var out []readsim.Read
	for _, s := range seqs {
		out = append(out, readsim.Read{Seq: dna.MustParseSeq(s)})
	}
	return out
}

func randDNA(r *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(dna.Alphabet[r.Intn(4)])
	}
	return sb.String()
}

func TestSingleReadYieldsItself(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		s := randDNA(r, 50+r.Intn(300))
		g := buildGraph(t, 8, 0, readsFromStrings(s))
		contigs := Contigs(g, Options{})
		if len(contigs) != 1 {
			// Repeated 7-mers can legitimately fragment; only insist when
			// the graph is a simple path.
			if g.Len() == len(s)-8+2 {
				t.Fatalf("path graph produced %d contigs", len(contigs))
			}
			continue
		}
		if contigs[0].String() != s {
			t.Fatalf("contig %q want %q", contigs[0], s)
		}
	}
}

func TestWalkAfterCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		s := randDNA(r, 400)
		g := buildGraph(t, 9, 0, readsFromStrings(s))
		if g.Len() != len(s)-9+2 {
			continue // non-path draw
		}
		res, err := compact.Run(g, compact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		contigs := append(Contigs(g, Options{}), res.Completed...)
		if len(contigs) != 1 || contigs[0].String() != s {
			t.Fatalf("after compaction got %d contigs, first %v", len(contigs), contigs[0].Len())
		}
	}
}

func TestTwoDisjointReads(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	// k=12 makes a shared 11-mer between two random 120-mers vanishingly
	// unlikely, so the two reads stay disconnected in the graph.
	a, b := randDNA(r, 120), randDNA(r, 120)
	g := buildGraph(t, 12, 0, readsFromStrings(a, b))
	contigs := Contigs(g, Options{})
	found := map[string]bool{}
	for _, c := range contigs {
		found[c.String()] = true
	}
	if !found[a] || !found[b] {
		t.Fatalf("missing expected contigs; got %d contigs", len(contigs))
	}
}

// TestContigsAreGenomeSubstrings is the no-misassembly property: with
// error-free reads from a repeat-free genome, every walked contig must be
// an exact substring of the genome.
func TestContigsAreGenomeSubstrings(t *testing.T) {
	gen, err := genome.Generate(genome.Config{Length: 8000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(gen, readsim.Config{ReadLen: 100, Coverage: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := gen.Replicons[0].String()
	for _, doCompact := range []bool{false, true} {
		g := buildGraph(t, 32, 0, reads)
		var completed []dna.Seq
		if doCompact {
			res, err := compact.Run(g, compact.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			completed = res.Completed
		}
		contigs := append(Contigs(g, Options{}), completed...)
		for _, c := range contigs {
			if !strings.Contains(ref, c.String()) {
				t.Fatalf("compact=%v: contig of length %d is not a genome substring", doCompact, c.Len())
			}
		}
		// Coverage: every 31-mer present in the reads must appear in some
		// contig (the genome's extreme ends may legitimately be unread).
		covered := make(map[string]bool)
		for _, c := range contigs {
			s := c.String()
			for i := 0; i+31 <= len(s); i++ {
				covered[s[i:i+31]] = true
			}
		}
		for ri, rd := range reads {
			s := rd.Seq.String()
			for i := 0; i+31 <= len(s); i++ {
				if !covered[s[i:i+31]] {
					t.Fatalf("compact=%v: read %d 31-mer at %d not covered", doCompact, ri, i)
				}
			}
		}
		// With structural wiring and no errors, the dominant contig should
		// span nearly the whole genome.
		if contigs[0].Len() < len(ref)*8/10 {
			t.Fatalf("compact=%v: longest contig %d < 80%% of genome %d", doCompact, contigs[0].Len(), len(ref))
		}
	}
}

func TestContigsSortedLongestFirst(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := buildGraph(t, 7, 0, readsFromStrings(randDNA(r, 500), randDNA(r, 100), randDNA(r, 50)))
	contigs := Contigs(g, Options{})
	for i := 1; i < len(contigs); i++ {
		if contigs[i-1].Len() < contigs[i].Len() {
			t.Fatal("not sorted by length desc")
		}
	}
}

func TestWalkDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	seqs := []string{randDNA(r, 600), randDNA(r, 600)}
	g1 := buildGraph(t, 8, 0, readsFromStrings(seqs...))
	g2 := buildGraph(t, 8, 0, readsFromStrings(seqs...))
	c1 := Contigs(g1, Options{})
	c2 := Contigs(g2, Options{})
	if len(c1) != len(c2) {
		t.Fatalf("contig counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if !c1[i].Equal(c2[i]) {
			t.Fatalf("contig %d differs between identical runs", i)
		}
	}
}
