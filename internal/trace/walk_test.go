package trace

import (
	"math/rand"
	"slices"
	"testing"

	"nmppak/internal/dna"
)

// walkCase decodes a fuzz input into a quantile table and a key run. Table
// edges and keys share a small key space, so keys fall on edges and
// duplicate edges often. A key byte below 224 steps the key up by 0–7
// (ties included); the rest step it down, or jump to the top of the key
// space.
func walkCase(nEdges uint16, ascending bool, data []byte) (q, keys []dna.Kmer) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	q = make([]dna.Kmer, int(nEdges)%(2*QuantileEdges))
	for i := range q {
		q[i] = dna.Kmer(next())
	}
	if ascending {
		slices.Sort(q)
	}
	var key dna.Kmer
	for pos < len(data) {
		switch c := next(); {
		case c < 224:
			key += dna.Kmer(c % 8)
		case c == 255:
			key = ^dna.Kmer(0)
		default:
			key -= min(key, dna.Kmer(c%64))
		}
		keys = append(keys, key)
	}
	return q, keys
}

// checkWalk fails unless a DIMMWalk over q maps every key of the run as
// dimmOf's binary search does.
func checkWalk(t *testing.T, q, keys []dna.Kmer, nDIMMs int) {
	t.Helper()
	w := NewDIMMWalk(q, nDIMMs)
	for k, key := range keys {
		if got, want := w.Of(key), dimmOf(q, key, nDIMMs); got != want {
			t.Fatalf("key %d (%d) of %d, %d edges, %d DIMMs: walk gives DIMM %d, search %d",
				k, key, len(keys), len(q), nDIMMs, got, want)
		}
	}
}

// TestDIMMWalkMatchesSearch runs the walk over real quantile tables, for
// the ascending node keys the simulators place and for a shuffled run.
func TestDIMMWalkMatchesSearch(t *testing.T) {
	tr := record(t, 2000, 5)
	q0 := AppendQuantiles(nil, tr.Iterations[0].Nodes)
	for _, it := range tr.Iterations {
		keys := make([]dna.Kmer, len(it.Nodes))
		for i, nd := range it.Nodes {
			keys[i] = nd.Key
		}
		q := AppendQuantiles(nil, it.Nodes)
		for _, n := range []int{0, 1, 3, 8, 16, 300} {
			checkWalk(t, q, keys, n)
			checkWalk(t, q0, keys, n)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		checkWalk(t, q, keys, 8)
	}
}

// FuzzDIMMWalk checks DIMMWalk against dimmOf over tables of any length,
// ascending or not, and key runs that mostly ascend but step back.
func FuzzDIMMWalk(f *testing.F) {
	f.Add(uint16(8), uint16(QuantileEdges), true, []byte{})
	f.Add(uint16(8), uint16(1), true, []byte{9, 1, 2, 3})
	f.Add(uint16(3), uint16(0), true, []byte{1, 2, 3})
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(uint16(8), uint16(QuantileEdges), true, data)
		f.Add(uint16(5+seed), uint16(17*seed), seed%2 == 0, data)
	}
	f.Fuzz(func(t *testing.T, nDIMMs, nEdges uint16, ascending bool, data []byte) {
		q, keys := walkCase(nEdges, ascending, data)
		checkWalk(t, q, keys, int(nDIMMs)%1100)
	})
}
