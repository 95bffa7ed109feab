package compact

import (
	"nmppak/internal/dna"
	"nmppak/internal/pakgraph"
)

// Extract appends the TransferNodes of an invalidated node v (Stage P2,
// Fig. 4c) to updates and its finished contigs to contigs. For each wire
// (prefix p, suffix s, count c):
//
//   - predecessor u = (p+v)[:k-1] holds a suffix extension equal to
//     (p+v)[k-1:] that points at v; it must become that extension with s
//     appended, carrying s's terminal flag (Fig. 4d: new_ext = pred_ext +
//     suffix);
//   - successor w = (v+s)[|s|:] holds a prefix extension equal to
//     (v+s)[:|s|]; it must become p + that extension, carrying p's terminal
//     flag.
//
// A terminal side has no corresponding neighbor, so its transfer is
// skipped; a wire terminal on both sides has no surviving home at all and
// is emitted as a finished contig p+v+s.
//
// The key and every Match and NewSeq of v are spelled word by word into
// one arena sized up front, each carved with its capacity clipped to its
// own words; nothing spells p+v or v+s whole. A finished contig gets an
// allocation of its own, so Result.Completed never pins an arena.
func Extract(updates []Update, contigs []dna.Seq, v *pakgraph.MacroNode, k1 int) ([]Update, []dna.Seq) {
	words := dna.Words(k1)
	for _, w := range v.Wires {
		if w.Count == 0 {
			continue
		}
		p, s := &v.Prefixes[w.P], &v.Suffixes[w.S]
		if p.Terminal && s.Terminal {
			continue
		}
		lp, ls := p.Seq.Len(), s.Seq.Len()
		if !p.Terminal {
			words += dna.Words(lp) + dna.Words(lp+ls)
		}
		if !s.Terminal {
			words += dna.Words(ls) + dna.Words(lp+ls)
		}
	}
	arena := make([]uint64, words)
	carve := func(n int) dna.Builder {
		nw := dna.Words(n)
		b := dna.NewBuilder(arena[:nw:nw])
		arena = arena[nw:]
		return b
	}
	kb := carve(k1)
	kb.AppendKmer(v.Key, k1)
	key := kb.Seq()

	for _, w := range v.Wires {
		if w.Count == 0 {
			continue
		}
		p := v.Prefixes[w.P]
		s := v.Suffixes[w.S]
		lp, ls := p.Seq.Len(), s.Seq.Len()
		if p.Terminal && s.Terminal {
			cb := dna.NewBuilder(make([]uint64, dna.Words(lp+k1+ls)))
			cb.Append(p.Seq, 0, lp)
			cb.Append(key, 0, k1)
			cb.Append(s.Seq, 0, ls)
			contigs = append(contigs, cb.Seq())
			continue
		}
		weight := min(p.Weight, s.Weight)
		if !p.Terminal {
			mb := carve(lp)
			mb.AppendJoined(p.Seq, key, k1, lp+k1) // (p+v)[k-1:]
			match := mb.Seq()
			nb := carve(lp + ls)
			nb.Append(match, 0, lp)
			nb.Append(s.Seq, 0, ls)
			updates = append(updates, Update{
				Target:      dna.NeighborViaPrefix(v.Key, k1, p.Seq),
				SuffixSide:  true,
				Match:       match,
				NewSeq:      nb.Seq(),
				NewTerminal: s.Terminal,
				Count:       w.Count,
				Weight:      weight,
			})
		}
		if !s.Terminal {
			mb := carve(ls)
			mb.AppendJoined(key, s.Seq, 0, ls) // (v+s)[:|s|]
			match := mb.Seq()
			nb := carve(lp + ls)
			nb.Append(p.Seq, 0, lp)
			nb.Append(match, 0, ls)
			updates = append(updates, Update{
				Target:      dna.NeighborViaSuffix(v.Key, k1, s.Seq),
				SuffixSide:  false,
				Match:       match,
				NewSeq:      nb.Seq(),
				NewTerminal: p.Terminal,
				Count:       w.Count,
				Weight:      weight,
			})
		}
	}
	return updates, contigs
}
