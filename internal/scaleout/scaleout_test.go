package scaleout

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// dnaKmer builds a valid 31-base key from an arbitrary word.
func dnaKmer(x uint64) dna.Kmer { return dna.Kmer(x & dna.KmerMask(31)) }

func testReads(t testing.TB, length int) []readsim.Read {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// mergeShards reassembles the global counting result from the shards,
// ordered and structured exactly like kmer.Count's. The shards hold
// disjoint key sets, so concatenating and sorting them is the global
// order.
func mergeShards(sc *ShardedCount) *kmer.Result {
	res := &kmer.Result{K: sc.K}
	for _, sh := range sc.Shards {
		res.Kmers = append(res.Kmers, sh.Kmers...)
		res.TotalExtracted += sh.TotalExtracted
		res.PrunedKinds += sh.PrunedKinds
		res.PrunedMass += sh.PrunedMass
	}
	slices.SortFunc(res.Kmers, func(a, b kmer.Counted) int { return cmp.Compare(a.Km, b.Km) })
	return res
}

func testTrace(t testing.TB, reads []readsim.Read, k int, minCount uint32) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(k)
	_, err := assemble.Run(reads, assemble.Config{
		K: k, MinCount: minCount, Flow: compact.FlowPipelined, Observer: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.Trace()
}

// Sharded counting must merge to the byte-identical single-node result:
// same k-mers, counts and pruning statistics, for any node
// count and every partitioner, up to the 64 nodes of the benchmark's
// scale-out workloads with the skewed one's rebalancing partitioner.
func TestShardedCountMergeEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	want, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewRebalancePartitioner(12, 1)} {
		for _, n := range []int{1, 2, 3, 4, 8, 64} {
			cfg := DefaultConfig(n)
			cfg.Partitioner = p
			sc, err := CountSharded(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := mergeShards(sc)
			if !reflect.DeepEqual(got.Kmers, want.Kmers) {
				t.Fatalf("%s n=%d: merged k-mers differ (%d vs %d entries)", p.Name(), n, len(got.Kmers), len(want.Kmers))
			}
			if got.TotalExtracted != want.TotalExtracted || got.PrunedKinds != want.PrunedKinds || got.PrunedMass != want.PrunedMass {
				t.Fatalf("%s n=%d: stats differ: %d/%d/%d vs %d/%d/%d", p.Name(), n,
					got.TotalExtracted, got.PrunedKinds, got.PrunedMass,
					want.TotalExtracted, want.PrunedKinds, want.PrunedMass)
			}
			// Every k-mer must live on the node the partitioner names.
			for i, sh := range sc.Shards {
				for _, kc := range sh.Kmers {
					if o := p.owners(n).owner(kc.Km, 32); o != i {
						t.Fatalf("%s n=%d: k-mer on node %d owned by %d", p.Name(), n, i, o)
					}
				}
			}
		}
	}
}

// TestCountExchangeMatchesReference checks the counting all-to-all's
// accounting and the shards against referenceCount, which rebuilds them
// from the reads with maps and kmer.Count. Reads shorter than k, and
// exactly k, sit among the simulated ones.
func TestCountExchangeMatchesReference(t *testing.T) {
	const k = 32
	reads := testReads(t, 20_000)
	src := reads[0].Seq
	for _, l := range []int{0, 1, k - 1, k, k + 1} {
		reads = append(reads, readsim.Read{Seq: src.Slice(0, l)})
	}
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewRebalancePartitioner(12, 1)} {
		for _, n := range []int{1, 2, 3, 8, 64} {
			cfg := DefaultConfig(n)
			cfg.K = k
			cfg.Partitioner = p
			sc, err := CountSharded(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkCount(t, reads, cfg, sc)
		}
	}
}

// Shard graphs must tile the single-node PaK-graph: the key sets partition
// it, every MacroNode equals the global node of its key, and each lives on
// the node that owns its key. MinCount 1 keeps the sequencing-error
// k-mers, whose forks give nodes several extensions per side, so the
// comparison also pins extension order.
func TestShardGraphEquivalence(t *testing.T) {
	reads := testReads(t, 20_000)
	for _, minCount := range []uint32{3, 1} {
		res, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: minCount})
		if err != nil {
			t.Fatal(err)
		}
		want, err := pakgraph.Build(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 4} {
			for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewBalancedPartitioner(res, 12, n)} {
				cfg := DefaultConfig(n)
				cfg.MinCount = minCount
				cfg.Partitioner = p
				sc, err := CountSharded(reads, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sg, err := sc.BuildShardGraphs(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Key ownership partitions the global graph, so the shard
				// graphs' sizes sum to the single-node node count.
				total := 0
				for _, g := range sg.Graphs {
					total += g.Len()
				}
				if total != want.Len() {
					t.Fatalf("%s min=%d n=%d: %d shard MacroNodes vs %d global", p.Name(), minCount, n, total, want.Len())
				}
				// A shard on its own has cross-shard extensions (its
				// neighbors live elsewhere), so structural validation runs
				// on the stitched union.
				merged := &pakgraph.Graph{K: 32}
				for _, g := range sg.Graphs {
					if err := merged.Merge(g); err != nil {
						t.Fatal(err)
					}
				}
				if err := merged.Validate(); err != nil {
					t.Fatalf("%s min=%d n=%d: merged shard graphs invalid: %v", p.Name(), minCount, n, err)
				}
				for i, g := range sg.Graphs {
					if err := g.CheckOrder(); err != nil {
						t.Fatalf("%s min=%d n=%d shard %d: %v", p.Name(), minCount, n, i, err)
					}
					for j := range g.Nodes {
						mn := &g.Nodes[j]
						if o := p.owners(n).owner(mn.Key, 31); o != i {
							t.Fatalf("%s min=%d n=%d: node %v on shard %d, owned by %d", p.Name(), minCount, n, mn.Key, i, o)
						}
						ref := want.Node(mn.Key)
						if ref == nil {
							t.Fatalf("%s min=%d n=%d shard %d: node %v not in global graph", p.Name(), minCount, n, i, mn.Key)
						}
						if !reflect.DeepEqual(mn, ref) {
							t.Fatalf("%s min=%d n=%d shard %d: node %v differs from the global node", p.Name(), minCount, n, i, mn.Key)
						}
					}
				}
			}
		}
	}
}

// BuildShardGraphs must refuse a config whose node count or k differs from
// the count's: its graphs would be keyed and owned for another run.
func TestBuildShardGraphsConfigMismatch(t *testing.T) {
	reads := testReads(t, 5_000)
	sc, err := CountSharded(reads, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  func() Config
	}{
		{"nodes", func() Config { return DefaultConfig(8) }},
		{"k", func() Config { cfg := DefaultConfig(4); cfg.K = 21; return cfg }},
	} {
		if sg, err := sc.BuildShardGraphs(c.cfg()); err == nil {
			t.Fatalf("%s: a count at 4 nodes and k=32 built %d shard graphs, want an error", c.name, len(sg.Graphs))
		}
	}
}

// graphFacts is what MacroNode construction over a sharded count yields
// per node, computed here the direct way: per-k-mer owner lookups, map key
// sets, no counting buffers.
type graphFacts struct {
	exchange   [][]int64
	recv       []int64
	macroNodes []int
}

func referenceGraphFacts(sc *ShardedCount, p Partitioner) graphFacts {
	n := sc.Nodes
	f := graphFacts{exchange: mat(n), recv: make([]int64, n), macroNodes: make([]int, n)}
	keys := make([]map[dna.Kmer]bool, n)
	for i := range keys {
		keys[i] = map[dna.Kmer]bool{}
	}
	for src, sh := range sc.Shards {
		for _, kc := range sh.Kmers {
			pre, suf := kc.Km.Prefix(), kc.Km.Suffix(sc.K)
			po, so := p.owners(n).owner(pre, sc.K-1), p.owners(n).owner(suf, sc.K-1)
			keys[po][pre], keys[so][suf] = true, true
			f.exchange[src][po] += graphRecordBytes
			f.recv[po]++
			if so != po {
				f.exchange[src][so] += graphRecordBytes
				f.recv[so]++
			}
		}
	}
	for i := range keys {
		f.macroNodes[i] = len(keys[i])
	}
	return f
}

// The prelude counts the construction all-to-all instead of building the
// graphs. Its counts, the prelude's per-node MacroNodes and the shard
// graphs BuildShardGraphs builds must all equal a direct per-k-mer
// computation, for every partitioner up to 64 nodes; at 64 nodes the
// balanced partitioner spills buckets, which endOwners resolves per word.
func TestPreludeMacroNodesMatchShardGraphs(t *testing.T) {
	reads := testReads(t, 20_000)
	full, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 64} {
		for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewRebalancePartitioner(12, 1), NewBalancedPartitioner(full, 12, n)} {
			cfg := DefaultConfig(n)
			cfg.Partitioner = p
			sc, err := CountSharded(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGraphFacts(sc, p)
			counted, macroNodes := sc.construction(cfg)
			sg, err := sc.BuildShardGraphs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				path string
				sg   *ShardGraphs
			}{{"construction", counted}, {"BuildShardGraphs", sg}} {
				if !reflect.DeepEqual(c.sg.GraphExchange, want.exchange) {
					t.Fatalf("%s n=%d: %s construction exchange differs from the direct computation", p.Name(), n, c.path)
				}
				if !reflect.DeepEqual(c.sg.RecvPerNode, want.recv) {
					t.Fatalf("%s n=%d: %s receives %v, direct computation %v", p.Name(), n, c.path, c.sg.RecvPerNode, want.recv)
				}
			}
			net, err := cfg.Topo.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runPrelude(reads, cfg, topo.NewFlight(net), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range sg.Graphs {
				if got := res.PerNode[i].MacroNodes; got != want.macroNodes[i] || macroNodes[i] != got || g.Len() != got {
					t.Fatalf("%s n=%d node %d: prelude counts %d MacroNodes, construction %d, shard graph has %d, direct key count %d",
						p.Name(), n, i, got, macroNodes[i], g.Len(), want.macroNodes[i])
				}
			}
		}
	}
}

// A warm CountSharded, and a warm construction count over its result,
// allocate O(n) times at n nodes: a fixed number of exact-size vectors per
// owner and per worker, never one growing list per (source, owner) pair
// or one record per k-mer.
func TestCountShardedAllocsLinearInNodes(t *testing.T) {
	reads := testReads(t, 20_000)
	const n = 64
	cfg := DefaultConfig(n)
	sc, err := CountSharded(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CountSharded(reads, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(4 * n); allocs > bound {
		t.Fatalf("CountSharded at n=%d allocates %v times, bound %v", n, allocs, bound)
	}
	sc.construction(cfg)
	allocs = testing.AllocsPerRun(3, func() { sc.construction(cfg) })
	if bound := float64(16 * n); allocs > bound {
		t.Fatalf("construction count at n=%d allocates %v times, bound %v", n, allocs, bound)
	}
}

// An N=1 scale-out run is the single-node system: no exchange traffic, and
// a compaction phase cycle-identical to nmp.Simulate on the same trace.
func TestScaleOutN1MatchesNMP(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(1)
	res, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nmp.Simulate(tr, cfg.NMP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compact.Total() != want.Cycles {
		t.Fatalf("N=1 compact phase %d cycles, single-node nmp.Simulate %d", res.Compact.Total(), want.Cycles)
	}
	if res.ExchangedBytes != 0 || res.HaloBytes != 0 || res.CommCycles != 0 {
		t.Fatalf("N=1 moved bytes over the interconnect: %d exchanged, %d halo, %d comm cycles",
			res.ExchangedBytes, res.HaloBytes, res.CommCycles)
	}
	if res.RemoteTNFrac != 0 {
		t.Fatalf("N=1 remote TN fraction %v", res.RemoteTNFrac)
	}
}

// ShardTrace with N=1 must reproduce the input trace exactly.
func TestShardTraceN1Identity(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	st := ShardTrace(tr, 1, HashPartitioner{})
	if !reflect.DeepEqual(st.Traces[0], tr) {
		t.Fatal("N=1 sub-trace differs from the input trace")
	}
}

// ShardTrace must conserve ops: every node visit and update lands on
// exactly one shard, and transfers split local/remote.
func TestShardTraceConservation(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	for _, n := range []int{2, 4, 8} {
		st := ShardTrace(tr, n, HashPartitioner{})
		var nodes, tns, upds int64
		for _, sub := range st.Traces {
			for i := range sub.Iterations {
				nodes += int64(len(sub.Iterations[i].Nodes))
				tns += int64(len(sub.Iterations[i].Transfers))
				upds += int64(len(sub.Iterations[i].Updates))
			}
		}
		var wantNodes, wantTNs, wantUpds int64
		for i := range tr.Iterations {
			wantNodes += int64(len(tr.Iterations[i].Nodes))
			wantTNs += int64(len(tr.Iterations[i].Transfers))
			wantUpds += int64(len(tr.Iterations[i].Updates))
		}
		if nodes != wantNodes {
			t.Fatalf("n=%d: %d node ops sharded vs %d global", n, nodes, wantNodes)
		}
		if tns != st.LocalTNs || st.LocalTNs+st.RemoteTNs != wantTNs {
			t.Fatalf("n=%d: transfers local %d remote %d vs global %d", n, st.LocalTNs, st.RemoteTNs, wantTNs)
		}
		if upds != wantUpds {
			t.Fatalf("n=%d: %d updates sharded vs %d global", n, upds, wantUpds)
		}
	}
}

// The arena kernel hands out every per-node op slice clipped to its length
// (nil when empty), even from a warm arena whose backing arrays are larger.
// Carving into a fresh arena allocates a bounded number of times that
// depends on the node count, not on the iteration's size, and a warm arena
// large enough for the iteration allocates nothing.
func TestShardIterationExactSize(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	first, last := &tr.Iterations[0], &tr.Iterations[len(tr.Iterations)-1]
	if len(first.Nodes) < 1000 {
		t.Fatalf("iteration 0 has only %d nodes", len(first.Nodes))
	}
	for _, n := range []int{1, 4, 8} {
		ownerOf := func(key dna.Kmer, _ int) int { return HashPartitioner{}.owners(n).owner(key, tr.K-1) }
		var a shardArena
		for it := range tr.Iterations {
			subs, _ := a.carve(&tr.Iterations[it], n, ownerOf, mat(n))
			for o := range subs {
				s := &subs[o]
				for _, c := range []struct {
					what     string
					len, cap int
					isNil    bool
				}{
					{"nodes", len(s.Nodes), cap(s.Nodes), s.Nodes == nil},
					{"transfers", len(s.Transfers), cap(s.Transfers), s.Transfers == nil},
					{"updates", len(s.Updates), cap(s.Updates), s.Updates == nil},
				} {
					if c.len == 0 && !c.isNil {
						t.Fatalf("n=%d iter %d node %d: empty %s slice is not nil", n, it, o, c.what)
					}
					if c.len != c.cap {
						t.Fatalf("n=%d iter %d node %d: %s len %d cap %d", n, it, o, c.what, c.len, c.cap)
					}
				}
			}
		}
		// A fresh arena: its index and count scratch, one backing array per
		// op kind, the quantile block and the sub-iteration headers — within
		// the bound the naive sharder's owner, counts, local and subs
		// headers plus four slices per node set.
		bound := float64(4 + 4*n)
		for _, iter := range []*trace.Iteration{first, last} {
			halo := mat(n)
			allocs := testing.AllocsPerRun(5, func() {
				var fresh shardArena
				fresh.carve(iter, n, ownerOf, halo)
			})
			if allocs > bound {
				t.Fatalf("n=%d: sharding a %d-node iteration allocates %v times, bound %v",
					n, len(iter.Nodes), allocs, bound)
			}
			// The arena is warm from the largest iteration, the first.
			if allocs := testing.AllocsPerRun(5, func() { a.carve(iter, n, ownerOf, halo) }); allocs != 0 {
				t.Fatalf("n=%d: a warm arena allocates %v times carving a %d-node iteration", n, allocs, len(iter.Nodes))
			}
		}
	}
}

// Two runs of the same configuration must agree cycle for cycle, and
// scaling out must monotonically shrink total time on a
// compute-dominated workload.
func TestScaleOutDeterminismAndMonotonicity(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	var prev *Result
	for _, n := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(n)
		a, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalCycles != b.TotalCycles || a.ExchangedBytes != b.ExchangedBytes || a.CommCycles != b.CommCycles {
			t.Fatalf("n=%d: nondeterministic result: %d/%d cycles, %d/%d bytes",
				n, a.TotalCycles, b.TotalCycles, a.ExchangedBytes, b.ExchangedBytes)
		}
		if prev != nil && a.TotalCycles >= prev.TotalCycles {
			t.Fatalf("n=%d: %d cycles, not faster than %d nodes (%d cycles)",
				n, a.TotalCycles, prev.Nodes, prev.TotalCycles)
		}
		prev = a
	}
}

func TestPartitionerRangeAndDeterminism(t *testing.T) {
	for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(8), NewRebalancePartitioner(8, 1)} {
		counts := make([]int, 7)
		for km := uint64(0); km < 10_000; km++ {
			o := p.owners(7).owner(dnaKmer(km*2654435761), 31)
			if o < 0 || o >= 7 {
				t.Fatalf("%s: owner %d out of range", p.Name(), o)
			}
			if o != p.owners(7).owner(dnaKmer(km*2654435761), 31) {
				t.Fatalf("%s: nondeterministic", p.Name())
			}
			counts[o]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Fatalf("%s: node %d owns nothing", p.Name(), i)
			}
		}
		if p.owners(1).owner(dnaKmer(12345), 31) != 0 {
			t.Fatalf("%s: single node must own everything", p.Name())
		}
	}
}
