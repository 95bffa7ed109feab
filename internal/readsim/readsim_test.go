package readsim

import (
	"math"
	"testing"

	"nmppak/internal/genome"
)

func mustGenome(t *testing.T, length int) *genome.Genome {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimulateCoverage(t *testing.T) {
	g := mustGenome(t, 50000)
	reads, err := Simulate(g, Config{ReadLen: 100, Coverage: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	depth := meanDepth(g, reads)
	if math.Abs(depth-20) > 0.5 {
		t.Fatalf("depth = %v want ~20", depth)
	}
	for _, rd := range reads {
		if rd.Seq.Len() != 100 {
			t.Fatalf("read length %d", rd.Seq.Len())
		}
		if len(rd.Qual) != 100 {
			t.Fatalf("qual length %d", len(rd.Qual))
		}
	}
}

func TestErrorFreeReadsMatchGenome(t *testing.T) {
	g := mustGenome(t, 5000)
	reads, err := Simulate(g, Config{ReadLen: 80, Coverage: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Replicons[0].String()
	for i, rd := range reads {
		want := ref[rd.Pos : rd.Pos+80]
		if rd.Seq.String() != want {
			t.Fatalf("read %d does not match genome at %d", i, rd.Pos)
		}
	}
}

func TestErrorRateRealized(t *testing.T) {
	g := mustGenome(t, 20000)
	const rate = 0.02
	reads, err := Simulate(g, Config{ReadLen: 100, Coverage: 30, ErrorRate: rate, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Replicons[0].String()
	mismatches, total := 0, 0
	for _, rd := range reads {
		want := ref[rd.Pos : rd.Pos+100]
		got := rd.Seq.String()
		for i := range want {
			total++
			if want[i] != got[i] {
				mismatches++
			}
		}
	}
	observed := float64(mismatches) / float64(total)
	if math.Abs(observed-rate) > rate*0.15 {
		t.Fatalf("observed error rate %v want ~%v", observed, rate)
	}
}

func TestErrorProfileRampsToward3Prime(t *testing.T) {
	p := errorProfile(100, 0.01)
	if p[0] >= p[99] {
		t.Fatalf("profile must ramp up: p[0]=%v p[99]=%v", p[0], p[99])
	}
	mean := 0.0
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	if math.Abs(mean-0.01) > 1e-9 {
		t.Fatalf("profile mean %v want 0.01", mean)
	}
}

func TestBothStrands(t *testing.T) {
	g := mustGenome(t, 10000)
	reads, err := Simulate(g, Config{ReadLen: 100, Coverage: 10, BothStrands: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := 0, 0
	ref := g.Replicons[0].String()
	for _, rd := range reads {
		if rd.Reverse {
			rev++
			rc := rd.Seq.ReverseComplement().String()
			if rc != ref[rd.Pos:rd.Pos+100] {
				t.Fatal("reverse read RC does not match genome")
			}
		} else {
			fwd++
		}
	}
	if fwd == 0 || rev == 0 {
		t.Fatalf("expected both strands, got fwd=%d rev=%d", fwd, rev)
	}
}

func TestPhredQualities(t *testing.T) {
	if phred(0) != 'I' {
		t.Fatal("zero error must map to max quality")
	}
	if q := phred(0.1); q != '!'+10 {
		t.Fatalf("phred(0.1) = %c", q)
	}
	if phred(1) != '!' {
		t.Fatalf("phred(1) = %c", phred(1))
	}
}

func TestSimulateValidation(t *testing.T) {
	g := mustGenome(t, 1000)
	if _, err := Simulate(g, Config{ReadLen: 0, Coverage: 1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Simulate(g, Config{ReadLen: 100, Coverage: 0}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Simulate(g, Config{ReadLen: 2000, Coverage: 1}); err == nil {
		t.Fatal("expected error: read longer than replicon")
	}
}

// meanDepth computes the realized average coverage of reads over g.
func meanDepth(g *genome.Genome, reads []Read) float64 {
	total := 0
	for _, rd := range reads {
		total += rd.Seq.Len()
	}
	if g.TotalLength() == 0 {
		return 0
	}
	return float64(total) / float64(g.TotalLength())
}
