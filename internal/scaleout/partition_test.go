package scaleout

import (
	"fmt"
	"math/rand"
	"testing"

	"nmppak/internal/dna"
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
			o := p.owners(n).owner(key, kk)
			if o < 0 || o >= n {
				t.Fatalf("owner %d out of range for kk=%d", o, kk)
			}
			if o != p.owners(n).owner(key, kk) || o != q.owners(n).owner(key, kk) {
				t.Fatalf("ownership of %v not a pure function of the key", key)
			}
		}
		// The fallback for machine sizes the table was not built for must
		// be pure as well.
		if o := p.owners(3).owner(key, 31); o != p.owners(3).owner(key, 31) || o < 0 || o >= 3 {
			t.Fatalf("fallback ownership impure or out of range")
		}
	}
	if p.owners(1).owner(dnaKmer(12345), 31) != 0 {
		t.Fatal("single node must own everything")
	}
	if p.nodes != n {
		t.Fatalf("table built for %d nodes, want %d", p.nodes, n)
	}
	// Sharded counting must place every k-mer on the node that owns it.
	cfg := DefaultConfig(n)
	cfg.Partitioner = p
	sc, err := CountSharded(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range sc.Shards {
		for _, kc := range sh.Kmers {
			if o := p.owners(n).owner(kc.Km, 32); o != i {
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

// refOwner is the owner of the kk-length word key under p over nodes
// nodes, written from each partitioner's documented rule instead of the
// owner map the package's kernels share: mix64(word) % nodes for the hash
// partitioner, mix64(minimizerOf) % nodes for the minimizer one, the
// super-bucket's table row (a spilled row: the word's hash) for a
// balanced partitioner at the node count its table was built for, and
// initialOwner of the super-bucket for one at any other count and for a
// rebalancing one.
func refOwner(p Partitioner, key dna.Kmer, kk, nodes int) int {
	if nodes <= 1 {
		return 0
	}
	switch q := p.(type) {
	case *HashPartitioner:
		p = *q
	case *MinimizerPartitioner:
		p = *q
	case *BalancedPartitioner:
		p = *q
	}
	switch q := p.(type) {
	case HashPartitioner:
		return int(mix64(uint64(key)) % uint64(nodes))
	case MinimizerPartitioner:
		return int(mix64(minimizerOf(key, kk, q.M)) % uint64(nodes))
	case BalancedPartitioner:
		b := superBucket(key, kk, q.M)
		if nodes != q.nodes {
			return initialOwner(b, nodes)
		}
		if o := q.table[b]; o != scatterOwner {
			return int(o)
		}
		return int(mix64(uint64(key)) % uint64(nodes))
	case *RebalancePartitioner:
		return initialOwner(superBucket(key, kk, q.M), nodes)
	}
	panic(fmt.Sprintf("refOwner: no rule for %T", p))
}

// FuzzRollingOwner checks, on every window of a read, the paired owners
// of the window's leading and trailing (k-1)-mers (endOwners, the
// graph-construction route), and the owner map's owner of the window and
// of both its ends, against the per-word reference refOwner, for every
// partitioner: hash, minimizer, rebalance, and a balanced one with a real
// table (spilled buckets included) asked at its own node count and at the
// fuzzed one, each with a value and a pointer form. The input picks k in [2,32], m in [1,k+1], the node count in
// [1,70] and a read of 1-70 bases.
func FuzzRollingOwner(f *testing.F) {
	// The balanced tables come from a small real sample, one per m, built
	// for tableNodes nodes; a sample this small spills its heavier buckets.
	const tableNodes = 5
	g, err := genome.Generate(genome.Config{Length: 3_000, Seed: 2, RepeatFraction: 0.3, RepeatUnit: 90})
	if err != nil {
		f.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 4, ErrorRate: 0.01, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	sample, err := kmer.Count(reads, kmer.Config{K: 32})
	if err != nil {
		f.Fatal(err)
	}
	balanced := make([]BalancedPartitioner, dna.MaxK+2)
	for m := 1; m < len(balanced); m++ {
		balanced[m] = NewBalancedPartitioner(sample, m, tableNodes)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 4+r.Intn(20))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{30, 11, 63, 69, 0xff, 0x00, 0x1b})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := 2 + int(data[0])%(dna.MaxK-1)
		m := 1 + int(data[1])%(k+1)
		nodes := 1 + int(data[2])%70
		n := 1 + int(data[3])%70
		// Bases come from the rest of the input, then from a generator
		// seeded by it, so short inputs still make long reads.
		bases := make([]dna.Base, n)
		gen := rand.New(rand.NewSource(int64(len(data)) ^ int64(data[3])<<8))
		for i := range bases {
			if b := 4 + i/4; b < len(data) {
				bases[i] = dna.Base(data[b] >> (2 * (i % 4)) & 3)
			} else {
				bases[i] = dna.Base(gen.Intn(4))
			}
		}
		seq := dna.FromBases(bases)
		for _, c := range []struct {
			p     Partitioner
			nodes int
		}{
			{HashPartitioner{}, nodes},
			{&HashPartitioner{}, nodes},
			{MinimizerPartitioner{M: m}, nodes},
			{&MinimizerPartitioner{M: m}, nodes},
			{NewRebalancePartitioner(m, 1), nodes},
			{balanced[m], tableNodes},
			{&balanced[m], tableNodes},
			{balanced[m], nodes},
			{&balanced[m], nodes},
		} {
			mo := c.p.owners(c.nodes)
			for i := 0; i+k <= n; i++ {
				key := dna.KmerFromSeq(seq, i, k)
				pre, suf := key.Prefix(), key.Suffix(k)
				want := refOwner(c.p, key, k, c.nodes)
				wantP, wantS := refOwner(c.p, pre, k-1, c.nodes), refOwner(c.p, suf, k-1, c.nodes)
				if po, so := mo.endOwners(key, k); po != wantP || so != wantS {
					t.Fatalf("%T %s k=%d m=%d nodes=%d: window %d of %s has end owners %d, %d; reference %d, %d",
						c.p, c.p.Name(), k, m, c.nodes, i, seq, po, so, wantP, wantS)
				}
				got := [3]int{mo.owner(key, k), mo.owner(pre, k-1), mo.owner(suf, k-1)}
				if got != [3]int{want, wantP, wantS} {
					t.Fatalf("%T %s k=%d m=%d nodes=%d: window %d of %s: owner of the window and its ends %v, reference %v",
						c.p, c.p.Name(), k, m, c.nodes, i, seq, got, [3]int{want, wantP, wantS})
				}
			}
		}
	})
}
