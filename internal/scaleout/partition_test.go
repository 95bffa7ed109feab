package scaleout

import (
	"testing"

	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
)

// skewedReads builds a repeat-heavy read set: short repeat units copied
// over a large genome fraction concentrate k-mer mass into few minimizer
// super-buckets, the load profile balanced partitioning targets.
func skewedReads(t *testing.T) []readsim.Read {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: 30_000, Seed: 11, RepeatFraction: 0.45, RepeatUnit: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// On a repeat-heavy genome the weight-aware partitioner must not lose to
// hash partitioning on compaction-load balance — and must fix the plain
// minimizer partitioner's imbalance — while keeping most of the minimizer
// scheme's communication locality.
func TestBalancedImbalanceOnSkewedGenome(t *testing.T) {
	reads := skewedReads(t)
	tr := testTrace(t, reads, 32, 3)
	res, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	run := func(p Partitioner) *Result {
		cfg := DefaultConfig(n)
		cfg.Partitioner = p
		r, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hash := run(HashPartitioner{})
	mini := run(NewMinimizerPartitioner(12))
	bal := run(NewBalancedPartitioner(res, 12, n))
	t.Logf("imbalance: hash=%.4f minimizer=%.4f balanced=%.4f; remote TNs: %.1f%%/%.1f%%/%.1f%%",
		hash.Imbalance, mini.Imbalance, bal.Imbalance,
		hash.RemoteTNFrac*100, mini.RemoteTNFrac*100, bal.RemoteTNFrac*100)
	if bal.Imbalance > hash.Imbalance {
		t.Errorf("balanced imbalance %.4f worse than hash %.4f", bal.Imbalance, hash.Imbalance)
	}
	if bal.Imbalance > mini.Imbalance {
		t.Errorf("balanced imbalance %.4f worse than plain minimizer %.4f", bal.Imbalance, mini.Imbalance)
	}
	if bal.RemoteTNFrac > hash.RemoteTNFrac {
		t.Errorf("balanced remote TN fraction %.3f lost the locality it was supposed to keep (hash %.3f)",
			bal.RemoteTNFrac, hash.RemoteTNFrac)
	}
}

// A sample too sparse for the spill divisor must disable the heavy-bucket
// spill rather than letting the integer threshold truncate to zero and
// scatter every bucket (which would silently degenerate the partitioner
// into per-key hashing).
func TestBalancedSparseSampleNoSpill(t *testing.T) {
	res := &kmer.Result{K: 32}
	for i := uint64(1); i <= 20; i++ {
		res.Kmers = append(res.Kmers, kmer.Counted{Km: dnaKmer(i * 2654435761), Count: 1})
	}
	p := NewBalancedPartitioner(res, 12, 8)
	perNode := make([]int, 8)
	for b, o := range p.table {
		if o == scatterOwner {
			t.Fatalf("bucket %d spilled on a sparse sample (total mass %d)", b, 2*len(res.Kmers))
		}
		perNode[o]++
	}
	// Unseen buckets must spread across the machine, not pile onto the
	// initially least-loaded node.
	for i, c := range perNode {
		if c == 0 || c > BalancedBuckets/2 {
			t.Fatalf("sparse-sample bucket distribution degenerate: node %d owns %d of %d buckets (%v)",
				i, c, BalancedBuckets, perNode)
		}
	}
}

// Ownership must be a pure function of the key: identical on every call,
// in range, and matched by the actual shard placement — every node can
// compute the assignment locally with no coordination.
func TestBalancedOwnershipPureFunction(t *testing.T) {
	reads := skewedReads(t)
	res, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	p := NewBalancedPartitioner(res, 12, n)
	// A second build from the same sample must agree everywhere (the
	// greedy binning has deterministic tie-breaks).
	q := NewBalancedPartitioner(res, 12, n)
	for km := uint64(0); km < 30_000; km++ {
		key := dnaKmer(km * 2654435761)
		for _, kk := range []int{31, 32} {
			o := p.Owner(key, kk, n)
			if o < 0 || o >= n {
				t.Fatalf("owner %d out of range for kk=%d", o, kk)
			}
			if o != p.Owner(key, kk, n) || o != q.Owner(key, kk, n) {
				t.Fatalf("ownership of %v not a pure function of the key", key)
			}
		}
		// The fallback for machine sizes the table was not built for must
		// be pure as well.
		if o := p.Owner(key, 31, 3); o != p.Owner(key, 31, 3) || o < 0 || o >= 3 {
			t.Fatalf("fallback ownership impure or out of range")
		}
	}
	if p.Owner(dnaKmer(12345), 31, 1) != 0 {
		t.Fatal("single node must own everything")
	}
	if p.Nodes() != n {
		t.Fatalf("Nodes() = %d, want %d", p.Nodes(), n)
	}
	// Sharded counting must place every k-mer on the node Owner names.
	cfg := DefaultConfig(n)
	cfg.Partitioner = p
	sc, err := CountSharded(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range sc.Shards {
		for _, kc := range sh.Kmers {
			if o := p.Owner(kc.Km, 32, n); o != i {
				t.Fatalf("k-mer on node %d but owned by %d", i, o)
			}
		}
	}
	// And the merged result must still be the single-node one.
	want, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := mergeShards(sc)
	if len(got.Kmers) != len(want.Kmers) || got.TotalExtracted != want.TotalExtracted {
		t.Fatalf("balanced-partitioned sharded count diverged: %d/%d kmers, %d/%d extracted",
			len(got.Kmers), len(want.Kmers), got.TotalExtracted, want.TotalExtracted)
	}
}
