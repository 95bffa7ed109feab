package scaleout

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/readsim"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// On a link-constrained machine the routed topologies must report
// strictly more exposed communication than the full mesh: their multi-hop
// store-and-forward routes share channels the mesh's dedicated wires do
// not, in both replay disciplines. Totals grow accordingly.
func TestRoutedTopologiesExposeMoreComm(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		base := DefaultConfig(8)
		base.Topo.BytesPerCycle = 2 // 3.2 GB/s links: comm-bound
		base.Overlap = overlap
		mesh, err := Simulate(reads, tr, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []topo.Kind{topo.Torus2D, topo.Dragonfly} {
			cfg := base
			cfg.Topo.Kind = kind
			r, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.CommFraction <= mesh.CommFraction {
				t.Errorf("overlap=%v %s: comm fraction %.4f not above fullmesh %.4f",
					overlap, r.Topology, r.CommFraction, mesh.CommFraction)
			}
			if r.TotalCycles <= mesh.TotalCycles {
				t.Errorf("overlap=%v %s: total %d not above fullmesh %d",
					overlap, r.Topology, r.TotalCycles, mesh.TotalCycles)
			}
			// Routing changes time, never traffic volume.
			if r.ExchangedBytes != mesh.ExchangedBytes || r.HaloBytes != mesh.HaloBytes {
				t.Errorf("overlap=%v %s: moved %d/%d bytes vs fullmesh %d/%d",
					overlap, r.Topology, r.ExchangedBytes, r.HaloBytes, mesh.ExchangedBytes, mesh.HaloBytes)
			}
		}
	}
}

// Measurement-driven re-partitioning must beat every static scheme on
// measured straggler imbalance — in particular the weight-aware
// BalancedPartitioner, whose counting sample cannot see replay-time skew
// — while keeping the minimizer family's communication locality, and it
// must charge its migrations to the network.
func TestRebalanceReducesImbalance(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	kres, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Partitioner) *Result {
		t.Helper()
		cfg := DefaultConfig(8)
		cfg.Partitioner = p
		r, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hash := run(HashPartitioner{})
	min := run(NewMinimizerPartitioner(12))
	bal := run(NewBalancedPartitioner(kres, 12, 8))
	reb := run(NewRebalancePartitioner(12, 1))

	if reb.Imbalance >= bal.Imbalance {
		t.Errorf("rebalance imbalance %.4f not below balanced %.4f", reb.Imbalance, bal.Imbalance)
	}
	if reb.Imbalance >= min.Imbalance {
		t.Errorf("rebalance imbalance %.4f not below minimizer %.4f", reb.Imbalance, min.Imbalance)
	}
	if reb.RemoteTNFrac >= hash.RemoteTNFrac {
		t.Errorf("rebalance lost minimizer locality: remote TNs %.3f vs hash %.3f",
			reb.RemoteTNFrac, hash.RemoteTNFrac)
	}
	if reb.Rebalances == 0 || reb.MigratedBytes == 0 {
		t.Errorf("no migrations recorded: %d rebalances, %d bytes", reb.Rebalances, reb.MigratedBytes)
	}
	if reb.ExchangedBytes <= reb.HaloBytes {
		t.Errorf("migration bytes not charged to the network: exchanged %d, halo %d",
			reb.ExchangedBytes, reb.HaloBytes)
	}
	for _, r := range []*Result{hash, min, bal} {
		if r.Rebalances != 0 || r.MigratedBytes != 0 {
			t.Errorf("%s: static partitioner recorded migrations", r.Partitioner)
		}
	}
}

// The rebalancing replay is measurement-driven but fully deterministic:
// two runs of the same configuration agree on every number.
func TestRebalanceDeterminism(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(8)
	cfg.Partitioner = NewRebalancePartitioner(12, 2)
	a, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || a.Compact != b.Compact ||
		a.MigratedBytes != b.MigratedBytes || a.Rebalances != b.Rebalances ||
		a.Imbalance != b.Imbalance || a.ExchangedBytes != b.ExchangedBytes {
		t.Fatalf("nondeterministic rebalance:\n%+v\n%+v", a, b)
	}
	if a.Rebalances == 0 {
		t.Fatal("period-2 rebalancer never migrated")
	}
}

// With one node there is nothing to migrate: the rebalanced replay
// reduces to the single-node nmp.Simulate outcome cycle for cycle, with
// no traffic and no migrations.
func TestRebalanceN1MatchesNMP(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(1)
	cfg.Partitioner = NewRebalancePartitioner(12, 1)
	res, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nmp.Simulate(tr, cfg.NMP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compact.Total() != want.Cycles {
		t.Fatalf("N=1 rebalanced compact %d cycles, nmp.Simulate %d", res.Compact.Total(), want.Cycles)
	}
	if res.Rebalances != 0 || res.MigratedBytes != 0 || res.ExchangedBytes != 0 || res.CommCycles != 0 {
		t.Fatalf("N=1 rebalance moved data: %+v", res)
	}
}

// checkColumn compares the column with a per-key superBucket over
// iteration it of tr.
func checkColumn(t *testing.T, what string, c *bucketColumn, tr *trace.Trace, it, m int) {
	t.Helper()
	nodes := tr.Iterations[it].Nodes
	if c.at != it || len(c.buckets) != len(nodes) {
		t.Fatalf("%s: column at iteration %d with %d entries, want iteration %d with %d", what, c.at, len(c.buckets), it, len(nodes))
	}
	for i := range nodes {
		if want := uint16(superBucket(nodes[i].Key, tr.K-1, m)); c.buckets[i] != want {
			t.Fatalf("%s: iteration %d visit %d (key %#x) in bucket %d, superBucket says %d",
				what, it, i, uint64(nodes[i].Key), c.buckets[i], want)
		}
	}
}

// On real compaction traces — a plain genome and a repeat-heavy one —
// every key of an iteration is a key of the one before and every
// iteration's keys ascend, so the column carries every bucket past the
// first iteration it describes: with the previous column poisoned, each
// entry of the next is the poison. Advanced from iteration 0 and from a
// mid-run start, the column matches a per-key superBucket throughout.
func TestBucketColumn(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 20_000, Seed: 11, RepeatFraction: 0.4, RepeatUnit: 700})
	if err != nil {
		t.Fatal(err)
	}
	repeats, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*trace.Trace{
		"plain":   testTrace(t, testReads(t, 15_000), 32, 3),
		"repeats": testTrace(t, repeats, 32, 3),
	} {
		iters := len(tr.Iterations)
		if iters < 3 {
			t.Fatalf("%s: trace of %d iterations", name, iters)
		}
		for _, start := range []int{0, iters / 2} {
			c := bucketColumn{at: -1}
			for it := start; it < iters; it++ {
				if it > start {
					prev := tr.Iterations[it-1].Nodes
					for _, nd := range tr.Iterations[it].Nodes {
						if _, found := slices.BinarySearchFunc(prev, nd.Key, func(a trace.NodeOp, k dna.Kmer) int {
							return cmp.Compare(a.Key, k)
						}); !found {
							t.Fatalf("%s: key %#x of iteration %d is not a key of iteration %d", name, uint64(nd.Key), it, it-1)
						}
					}
					// Poison the column: a carried entry keeps the poison.
					poisoned := bucketColumn{buckets: slices.Clone(c.buckets), at: c.at}
					for i := range poisoned.buckets {
						poisoned.buckets[i] = BalancedBuckets
					}
					poisoned.advance(tr, it, 12)
					for i, b := range poisoned.buckets {
						if b != BalancedBuckets {
							t.Fatalf("%s: iteration %d visit %d hashed, not carried", name, it, i)
						}
					}
				}
				c.advance(tr, it, 12)
				checkColumn(t, fmt.Sprintf("%s from %d", name, start), &c, tr, it, 12)
			}
		}
	}
}

// FuzzBucketColumn advances a column over random iterations of random
// (k-1)-mer keys and compares every iteration's column with a per-key
// superBucket. Iteration 0 is an ascending key list; each later one keeps
// a random subset of the one before and, as its shape byte says, gains
// keys the previous iteration lacks, puts a key out of ascending order,
// repeats a key or is empty. The column starts at a fuzzed iteration r
// (a resumed session), and once past the end is sent back to r.
func FuzzBucketColumn(f *testing.F) {
	f.Add(uint64(1), uint8(31), uint8(12), uint8(0), []byte{200, 3, 3, 3, 3})
	f.Add(uint64(2), uint8(31), uint8(12), uint8(2), []byte{255, 7, 11, 19, 35, 3})
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), []byte{16, 2, 0x10, 6})
	f.Add(uint64(4), uint8(20), uint8(25), uint8(0), []byte{90, 0x0b, 0x27, 1})
	f.Fuzz(func(t *testing.T, seed uint64, kb, mb, rb uint8, shape []byte) {
		if len(shape) == 0 {
			return
		}
		if len(shape) > 16 {
			shape = shape[:16]
		}
		k := 2 + int(kb)%(dna.MaxK-1) // k-mer length in [2, 32]
		kk := k - 1
		m := 1 + int(mb)%(kk+1) // m in [1, kk+1]: kk and beyond are unhashed
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		mask := dna.KmerMask(kk)
		randomKeys := func(c int) []uint64 {
			keys := make([]uint64, c)
			for i := range keys {
				keys[i] = next() & mask
			}
			slices.Sort(keys)
			return slices.Compact(keys)
		}
		tr := &trace.Trace{K: k}
		keys := randomKeys(int(shape[0]))
		for it, b := range shape {
			if it > 0 {
				keep := keys[:0:0]
				for _, key := range keys {
					if next()%4 <= uint64(b&3) {
						keep = append(keep, key)
					}
				}
				keys = keep
				if b&4 != 0 { // keys the previous iteration lacks
					keys = append(keys, randomKeys(1+int(b>>5))...)
					slices.Sort(keys)
					keys = slices.Compact(keys)
				}
				if b&8 != 0 && len(keys) > 1 { // a descending key
					i := int(next() % uint64(len(keys)-1))
					keys[i], keys[i+1] = keys[i+1], keys[i]
				}
				if b&16 != 0 && len(keys) > 0 { // a repeated key
					i := int(next() % uint64(len(keys)))
					keys = slices.Insert(keys, i, keys[i])
				}
				if b&0xe0 == 0xe0 { // an empty iteration
					keys = nil
				}
			}
			iter := trace.Iteration{}
			for _, key := range keys {
				iter.Nodes = append(iter.Nodes, trace.NodeOp{Key: dna.Kmer(key)})
			}
			tr.Iterations = append(tr.Iterations, iter)
		}
		r := int(rb) % len(tr.Iterations)
		c := bucketColumn{at: -1}
		for it := r; it < len(tr.Iterations); it++ {
			c.advance(tr, it, m)
			checkColumn(t, fmt.Sprintf("k=%d m=%d from %d", k, m, r), &c, tr, it, m)
		}
		c.advance(tr, r, m)
		checkColumn(t, fmt.Sprintf("k=%d m=%d back to %d", k, m, r), &c, tr, r, m)
	})
}
