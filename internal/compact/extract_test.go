package compact

import (
	"math/rand"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/pakgraph"
)

// extractNaive is the reference extraction: it spells p+v and v+s whole
// with Concat and cuts each Match out of them with Slice.
func extractNaive(v *pakgraph.MacroNode, k1 int) (updates []Update, contigs []dna.Seq) {
	keySeq := v.Key.Seq(k1)
	for _, w := range v.Wires {
		if w.Count == 0 {
			continue
		}
		p := v.Prefixes[w.P]
		s := v.Suffixes[w.S]
		if p.Terminal && s.Terminal {
			contigs = append(contigs, p.Seq.Concat(keySeq).Concat(s.Seq))
			continue
		}
		weight := min(p.Weight, s.Weight)
		if !p.Terminal {
			pv := p.Seq.Concat(keySeq)
			match := pv.Slice(k1, pv.Len())
			updates = append(updates, Update{
				Target:      dna.NeighborViaPrefix(v.Key, k1, p.Seq),
				SuffixSide:  true,
				Match:       match,
				NewSeq:      match.Concat(s.Seq),
				NewTerminal: s.Terminal,
				Count:       w.Count,
				Weight:      weight,
			})
		}
		if !s.Terminal {
			vs := keySeq.Concat(s.Seq)
			match := vs.Slice(0, s.Seq.Len())
			updates = append(updates, Update{
				Target:      dna.NeighborViaSuffix(v.Key, k1, s.Seq),
				SuffixSide:  false,
				Match:       match,
				NewSeq:      p.Seq.Concat(match),
				NewTerminal: p.Terminal,
				Count:       w.Count,
				Weight:      weight,
			})
		}
	}
	return updates, contigs
}

// randMacroNode draws a node whose extension lengths straddle k1 and the
// 32-base word boundaries, with random terminal flags, weights and wires
// (zero-count wires included).
func randMacroNode(r *rand.Rand, k1 int) *pakgraph.MacroNode {
	lens := []int{0, 1, k1 - 1, k1, k1 + 1, 31, 32, 33, 63, 64, 65}
	ext := func() pakgraph.Ext {
		return pakgraph.Ext{
			Seq:      dna.MustParseSeq(randDNA(r, lens[r.Intn(len(lens))])),
			Weight:   uint32(r.Intn(20)),
			Terminal: r.Intn(4) == 0,
		}
	}
	v := &pakgraph.MacroNode{Key: dna.Kmer(r.Uint64() & dna.KmerMask(k1))}
	for i := 1 + r.Intn(3); i > 0; i-- {
		v.Prefixes = append(v.Prefixes, ext())
	}
	for i := 1 + r.Intn(3); i > 0; i-- {
		v.Suffixes = append(v.Suffixes, ext())
	}
	for i := 1 + r.Intn(4); i > 0; i-- {
		v.Wires = append(v.Wires, pakgraph.Wire{
			P:     int32(r.Intn(len(v.Prefixes))),
			S:     int32(r.Intn(len(v.Suffixes))),
			Count: uint32(r.Intn(4)),
		})
	}
	return v
}

func sameUpdate(a, b *Update) bool {
	return a.Target == b.Target && a.SuffixSide == b.SuffixSide &&
		a.Match.Equal(b.Match) && a.NewSeq.Equal(b.NewSeq) &&
		a.NewTerminal == b.NewTerminal && a.Count == b.Count && a.Weight == b.Weight
}

// TestExtractMatchesNaive compares the arena extractor with the Concat/
// Slice reference on random MacroNodes: same updates in the same order
// and the same contigs. Extract appends, so it also runs after existing
// entries, which it must leave alone; and growing any extracted sequence
// with Seq.Append must not change a neighbour in the arena.
func TestExtractMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		k1 := []int{2, 3, 16, 30, 31}[trial%5]
		v := randMacroNode(r, k1)
		wantU, wantC := extractNaive(v, k1)

		head := Update{Target: 7, Match: dna.MustParseSeq("ACGT"), NewSeq: dna.MustParseSeq("ACGTT"), Count: 1}
		headC := dna.MustParseSeq("GATTACA")
		gotU, gotC := Extract([]Update{head}, []dna.Seq{headC}, v, k1)
		if len(gotU) != 1+len(wantU) || len(gotC) != 1+len(wantC) {
			t.Fatalf("trial %d: %d updates, %d contigs; want %d, %d", trial, len(gotU)-1, len(gotC)-1, len(wantU), len(wantC))
		}
		if !sameUpdate(&gotU[0], &head) || !gotC[0].Equal(headC) {
			t.Fatalf("trial %d: Extract changed the entries it appended to", trial)
		}
		gotU, gotC = gotU[1:], gotC[1:]
		for i := range wantU {
			if !sameUpdate(&gotU[i], &wantU[i]) {
				t.Fatalf("trial %d (k1=%d) update %d:\n got  %+v %s %s\n want %+v %s %s", trial, k1, i,
					gotU[i], gotU[i].Match, gotU[i].NewSeq, wantU[i], wantU[i].Match, wantU[i].NewSeq)
			}
		}
		for i := range wantC {
			if !gotC[i].Equal(wantC[i]) {
				t.Fatalf("trial %d contig %d: got %s want %s", trial, i, gotC[i], wantC[i])
			}
		}
		for i := range gotU {
			_ = gotU[i].Match.Append(dna.G)
			_ = gotU[i].NewSeq.Append(dna.G)
		}
		for i := range wantU {
			if !sameUpdate(&gotU[i], &wantU[i]) {
				t.Fatalf("trial %d: appending to an extracted sequence changed update %d", trial, i)
			}
		}
	}
}
