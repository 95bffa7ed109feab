package scaleout

import (
	"fmt"
	"reflect"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/trace"
)

// shardNaive is the reference sharder the arena kernel replaced: it
// resolves every owner, counts each node's ops, then allocates each node's
// sub-iteration at exactly the size it keeps and appends into it.
func shardNaive(iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, halo [][]int64) ([]trace.Iteration, traffic) {
	var t traffic
	owner := make([]int32, len(iter.Nodes))
	counts := make([]int32, 3*n)
	for i := range iter.Nodes {
		o := int32(ownerOf(iter.Nodes[i].Key))
		owner[i] = o
		counts[o]++
	}
	for _, tn := range iter.Transfers {
		s, d := owner[tn.SrcIdx], owner[tn.DstIdx]
		if s == d {
			t.localTNs++
			counts[n+int(s)]++
			continue
		}
		t.remoteTNs++
		t.haloBytes += int64(tn.TNBytes)
		if halo != nil {
			halo[s][d] += int64(tn.TNBytes)
		}
	}
	for _, u := range iter.Updates {
		counts[2*n+int(owner[u.DstIdx])]++
	}
	nodeCnt, tnCnt, updCnt := counts[:n], counts[n:2*n], counts[2*n:]

	subs := make([]trace.Iteration, n)
	for o := range subs {
		if c := nodeCnt[o]; c > 0 {
			subs[o].Nodes = make([]trace.NodeOp, 0, c)
		}
		if c := tnCnt[o]; c > 0 {
			subs[o].Transfers = make([]trace.TransferOp, 0, c)
		}
		if c := updCnt[o]; c > 0 {
			subs[o].Updates = make([]trace.UpdateOp, 0, c)
		}
	}
	local := make([]int32, len(iter.Nodes))
	for i := range iter.Nodes {
		o := owner[i]
		local[i] = int32(len(subs[o].Nodes))
		subs[o].Nodes = append(subs[o].Nodes, iter.Nodes[i])
	}
	for _, tn := range iter.Transfers {
		if s := owner[tn.SrcIdx]; s == owner[tn.DstIdx] {
			subs[s].Transfers = append(subs[s].Transfers, trace.TransferOp{
				SrcIdx: local[tn.SrcIdx], DstIdx: local[tn.DstIdx],
				TNBytes: tn.TNBytes, SuffixSide: tn.SuffixSide,
			})
		}
	}
	for _, u := range iter.Updates {
		o := owner[u.DstIdx]
		subs[o].Updates = append(subs[o].Updates, trace.UpdateOp{
			DstIdx: local[u.DstIdx], ReadBytes: u.ReadBytes, WriteBytes: u.WriteBytes,
		})
	}
	for o := range subs {
		subs[o].Stats = iter.Stats
	}
	return subs, t
}

// keyed is the shard feed's owner that reads only the visit's key.
func keyed(ownerOf func(dna.Kmer) int) ownerFunc {
	return func(key dna.Kmer, _ int) int { return ownerOf(key) }
}

// checkCarve carves iter into a under carveOwner and compares the
// sub-iterations, the traffic split and the halo matrix with shardNaive's
// under the key -> node assignment ownerOf.
func checkCarve(t *testing.T, what string, a *shardArena, iter *trace.Iteration, n int, ownerOf func(dna.Kmer) int, carveOwner ownerFunc) {
	t.Helper()
	wantHalo, gotHalo := mat(n), mat(n)
	want, wantT := shardNaive(iter, n, ownerOf, wantHalo)
	got, gotT := a.carve(iter, n, carveOwner, gotHalo)
	if gotT != wantT {
		t.Fatalf("%s: traffic %+v, naive %+v", what, gotT, wantT)
	}
	if !reflect.DeepEqual(gotHalo, wantHalo) {
		t.Fatalf("%s: halo matrix differs from the naive sharder's", what)
	}
	if len(got) != n {
		t.Fatalf("%s: %d sub-iterations for %d nodes", what, len(got), n)
	}
	for o := range got {
		if !reflect.DeepEqual(got[o], want[o]) {
			t.Fatalf("%s: node %d's sub-iteration differs from the naive sharder's (%d/%d/%d ops, naive %d/%d/%d)",
				what, o, len(got[o].Nodes), len(got[o].Transfers), len(got[o].Updates),
				len(want[o].Nodes), len(want[o].Transfers), len(want[o].Updates))
		}
	}
}

// The arena kernel must shard every iteration exactly as the naive
// sharder does, under every static partitioner and a rebalance table
// taken mid-run after migrations, with one arena reused while the
// iterations shrink and then grow again, so a stale entry would show. A
// rebalancing owner must also carve through a bucket column advanced
// along that order (carried while the iterations shrink, rehashed when
// they grow), under its initial table, under the mid-run table and under
// a table that migrates before every iteration. Fed through the shard feed
// under a live mask with a dead node, each live node's slot holds its
// sub-iteration and the dead node's stays empty.
func TestShardArenaMatchesNaive(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	iters := len(tr.Iterations)
	if iters < 3 || len(tr.Iterations[0].Nodes) <= len(tr.Iterations[iters-1].Nodes) {
		t.Fatalf("trace of %d iterations does not shrink", iters)
	}
	full, err := kmer.Count(reads, kmer.Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The iterations in order (shrinking), then back to the first
	// (growing).
	var order []int
	for it := 0; it < iters; it++ {
		order = append(order, it)
	}
	for it := iters - 2; it >= 0; it-- {
		order = append(order, it)
	}
	k1 := tr.K - 1
	for _, n := range []int{1, 3, 8, 64} {
		owners := map[string]func(dna.Kmer) int{}
		for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewBalancedPartitioner(full, 12, n)} {
			owners[p.Name()] = func(key dna.Kmer) int { return p.owners(n).owner(key, k1) }
		}
		var midRun []uint16
		if n > 1 {
			midRun = midRunRebalanceTable(t, tr, n)
			owners["rebalance mid-run"] = tableOwner(midRun, 12, k1)
		}
		for name, ownerOf := range owners {
			a := new(shardArena)
			for _, it := range order {
				checkCarve(t, fmt.Sprintf("n=%d %s iteration %d", n, name, it), a, &tr.Iterations[it], n, ownerOf, keyed(ownerOf))
			}
		}
		if n == 1 {
			continue
		}

		// Through a bucket column.
		for _, tc := range []struct {
			name    string
			table   []uint16
			migrate bool
		}{
			{"initial table", nil, false},
			{"mid-run table", midRun, false},
			{"migrating table", midRun, true},
		} {
			rb := newRebalancer(tr, n, NewRebalancePartitioner(12, 1), nil)
			if tc.table != nil {
				copy(rb.table, tc.table)
			}
			a := new(shardArena)
			for step, it := range order {
				if tc.migrate {
					// Move a seventh of the buckets one node on, a different
					// seventh each time.
					for b := range rb.table {
						if b%7 == step%7 {
							rb.table[b] = uint16((int(rb.table[b]) + 1) % n)
						}
					}
				}
				rb.col.advance(tr, it, rb.p.M)
				checkCarve(t, fmt.Sprintf("n=%d column under the %s, iteration %d", n, tc.name, it),
					a, &tr.Iterations[it], n, tableOwner(rb.table, rb.p.M, k1), rb.ownerOf)
			}
		}

		// Through the feed, node 1 dead and its keys failed over.
		live := make([]bool, n)
		var surv []int
		for o := range live {
			live[o] = o != 1
			if live[o] {
				surv = append(surv, o)
			}
		}
		p := HashPartitioner{}
		ownerOf := func(key dna.Kmer) int { return failover(p.owners(n).owner(key, k1), key, live, surv) }
		f := newShardFeed(tr, n, keyed(ownerOf), live)
		a := new(shardArena)
		for _, it := range order {
			want, _ := shardNaive(&tr.Iterations[it], n, ownerOf, nil)
			f.carve(a, it, mat(n))
			for o, sub := range want {
				if !live[o] {
					if len(sub.Nodes) != 0 {
						t.Fatalf("n=%d iteration %d: dead node %d owns %d visits", n, it, o, len(sub.Nodes))
					}
					sub = trace.Iteration{}
				}
				if !reflect.DeepEqual(f.traces[o].Iterations[it], sub) {
					t.Fatalf("n=%d iteration %d: node %d's fed slot differs from the naive sharder's", n, it, o)
				}
			}
			f.release(it)
			for o, tt := range f.traces {
				if !reflect.DeepEqual(tt.Iterations[it], trace.Iteration{}) {
					t.Fatalf("n=%d iteration %d: node %d's slot not empty after release", n, it, o)
				}
			}
		}
	}
}

// tableOwner is the key -> node assignment of a rebalancing ownership
// table over m-mer super-buckets of kk-length words; it reads the table
// at every call.
func tableOwner(table []uint16, m, kk int) func(dna.Kmer) int {
	return func(key dna.Kmer) int { return int(table[superBucket(key, kk, m)]) }
}

// midRunRebalanceTable steps an n-node rebalancing session through half
// of tr and returns a copy of its migrated ownership table.
func midRunRebalanceTable(t *testing.T, tr *trace.Trace, n int) []uint16 {
	t.Helper()
	cfg := DefaultConfig(n)
	cfg.Partitioner = NewRebalancePartitioner(12, 1)
	s, err := NewSession(testReads(t, 15_000), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(len(tr.Iterations) / 2)
	rb := s.run.rb
	if rb.rebalances == 0 {
		t.Fatalf("n=%d: no migration in the first %d iterations", n, len(tr.Iterations)/2)
	}
	return append([]uint16(nil), rb.table...)
}

// FuzzShardArena carves random iterations — node, transfer and update
// counts and indices — over 1 to 70 nodes under a random, possibly skewed
// bucket table, two or three of them through one arena, and compares each
// with the naive sharder, once with the owner read from the visit's key
// and once through a carried column indexed by visit, with a third of the
// table migrating between rounds.
func FuzzShardArena(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{10, 5, 5})
	f.Add(uint8(7), uint64(2), []byte{200, 100, 50, 3, 1, 0, 90, 90, 90})
	f.Add(uint8(69), uint64(3), []byte{255, 255, 255, 0, 0, 0})
	f.Add(uint8(2), uint64(4), []byte{1, 0, 0, 40, 80, 20, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nb uint8, seed uint64, shape []byte) {
		n := 1 + int(nb)%70
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		// A 64-entry bucket table over a random prefix of the nodes, so
		// some nodes may own nothing.
		var table [64]int
		span := 1 + int(next()%uint64(n))
		for b := range table {
			table[b] = int(next() % uint64(span))
		}
		bucket := func(key dna.Kmer) int { return int(mix64(uint64(key)^seed) % 64) }
		ownerOf := func(key dna.Kmer) int { return table[bucket(key)] }
		// The same assignment read as rebalancer.ownerOf reads it: by visit
		// index, through a column of the visits' buckets carried beside the
		// iteration, never from the key.
		var col []int
		colOwner := func(_ dna.Kmer, i int) int { return table[col[i]] }

		rounds := 2 + len(shape)%2
		shape = append(shape, make([]byte, 3*rounds)...)
		a := new(shardArena)
		for r := 0; r < rounds; r++ {
			iter := randomIteration(next, 4*int(shape[3*r]), 4*int(shape[3*r+1]), 4*int(shape[3*r+2]))
			col = col[:0]
			for _, v := range iter.Nodes {
				col = append(col, bucket(v.Key))
			}
			checkCarve(t, fmt.Sprintf("n=%d round %d", n, r), a, iter, n, ownerOf, keyed(ownerOf))
			checkCarve(t, fmt.Sprintf("n=%d round %d, column", n, r), a, iter, n, ownerOf, colOwner)
			// Migrate a third of the buckets before the next round.
			for b := range table {
				if b%3 == r%3 {
					table[b] = int(next() % uint64(n))
				}
			}
		}
	})
}

// randomIteration builds an iteration of nodes visits with ascending keys
// and, when it has any visit, the given numbers of transfers and updates
// at random indices.
func randomIteration(next func() uint64, nodes, transfers, updates int) *trace.Iteration {
	iter := &trace.Iteration{}
	iter.Stats.Iter = int(next() % 100)
	var key uint64
	for i := 0; i < nodes; i++ {
		key += 1 + next()%(1<<40)
		iter.Nodes = append(iter.Nodes, trace.NodeOp{
			Key: dnaKmer(key), D1: int32(next() % 512), D2: int32(next() % 512),
			Exts: int32(next() % 8), Wires: int32(next() % 8), Invalidated: next()%2 == 0,
		})
	}
	if nodes == 0 {
		return iter
	}
	idx := func() int32 { return int32(next() % uint64(nodes)) }
	for i := 0; i < transfers; i++ {
		iter.Transfers = append(iter.Transfers, trace.TransferOp{
			SrcIdx: idx(), DstIdx: idx(), TNBytes: int32(next() % 4096), SuffixSide: next()%2 == 0,
		})
	}
	for i := 0; i < updates; i++ {
		iter.Updates = append(iter.Updates, trace.UpdateOp{
			DstIdx: idx(), ReadBytes: int32(next() % 1024), WriteBytes: int32(next() % 1024),
		})
	}
	return iter
}
