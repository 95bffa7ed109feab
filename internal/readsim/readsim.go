// Package readsim simulates Illumina-style short-read sequencing.
//
// It substitutes for the ART simulator the paper uses (Huang et al., 2012):
// fixed-length reads (100 bp in the paper), a target coverage (100× in the
// paper), and a per-base substitution error profile that rises toward the
// 3' end of the read, with matching Phred quality strings. Reads are drawn
// from the forward strand by default, because the assembly pipeline is
// strand-directed (see Config.BothStrands); both-strand simulation is
// available for workloads that want it.
package readsim

import (
	"fmt"
	"math"
	"math/rand"

	"nmppak/internal/dna"
	"nmppak/internal/genome"
)

// Config controls read simulation.
type Config struct {
	ReadLen  int     // read length in bases (paper: 100)
	Coverage float64 // mean sequencing depth (paper: 100)
	// ErrorRate is the mean substitution probability per base (Illumina
	// short reads are <1% per the paper's §2.1; default 0 = error-free).
	ErrorRate float64
	// BothStrands samples reads from forward and reverse-complement
	// strands when true. The assembly pipeline in this repository is
	// strand-directed, so the default is forward-only.
	BothStrands bool
	Seed        int64
}

// Read is one simulated read with its originating coordinates (for
// debugging and genome-fraction metrics).
type Read struct {
	Seq      dna.Seq
	Qual     []byte // Phred+33
	Replicon int
	Pos      int
	Reverse  bool
}

// Simulate draws reads from g to reach cfg.Coverage mean depth.
func Simulate(g *genome.Genome, cfg Config) ([]Read, error) {
	if cfg.ReadLen <= 0 {
		return nil, fmt.Errorf("readsim: ReadLen must be positive, got %d", cfg.ReadLen)
	}
	if cfg.Coverage <= 0 {
		return nil, fmt.Errorf("readsim: Coverage must be positive, got %v", cfg.Coverage)
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate >= 1 {
		return nil, fmt.Errorf("readsim: ErrorRate %v out of [0,1)", cfg.ErrorRate)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	profile := errorProfile(cfg.ReadLen, cfg.ErrorRate)
	var reads []Read
	for ri, replicon := range g.Replicons {
		if replicon.Len() < cfg.ReadLen {
			return nil, fmt.Errorf("readsim: replicon %d length %d < read length %d", ri, replicon.Len(), cfg.ReadLen)
		}
		n := int(math.Ceil(cfg.Coverage * float64(replicon.Len()) / float64(cfg.ReadLen)))
		for i := 0; i < n; i++ {
			pos := r.Intn(replicon.Len() - cfg.ReadLen + 1)
			rd := Read{Replicon: ri, Pos: pos}
			frag := replicon.Slice(pos, pos+cfg.ReadLen)
			if cfg.BothStrands && r.Intn(2) == 1 {
				frag = frag.ReverseComplement()
				rd.Reverse = true
			}
			rd.Seq, rd.Qual = applyErrors(r, frag, profile)
			reads = append(reads, rd)
		}
	}
	return reads, nil
}

// errorProfile returns per-position substitution probabilities averaging
// rate, ramping linearly from 0.4× at the 5' end to 1.6× at the 3' end —
// the qualitative Illumina degradation ART models.
func errorProfile(readLen int, rate float64) []float64 {
	p := make([]float64, readLen)
	for i := range p {
		frac := 0.0
		if readLen > 1 {
			frac = float64(i) / float64(readLen-1)
		}
		p[i] = rate * (0.4 + 1.2*frac)
	}
	return p
}

func applyErrors(r *rand.Rand, frag dna.Seq, profile []float64) (dna.Seq, []byte) {
	bases := frag.Bases()
	qual := make([]byte, len(bases))
	for i := range bases {
		p := profile[i]
		qual[i] = phred(p)
		if p > 0 && r.Float64() < p {
			// Substitute with one of the three other bases.
			bases[i] = (bases[i] + dna.Base(1+r.Intn(3))) & 3
		}
	}
	return dna.FromBases(bases), qual
}

// phred converts an error probability to a Phred+33 quality character,
// clamped to the Illumina 1.8 range [!, I].
func phred(p float64) byte {
	if p <= 0 {
		return 'I'
	}
	q := -10 * math.Log10(p)
	if q < 0 {
		q = 0
	}
	if q > 40 {
		q = 40
	}
	return byte('!' + int(q+0.5))
}
