package scaleout

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nmppak/internal/kmer"
	"nmppak/internal/trace"
)

// The memoized whole-trace traffic split a resumed static run reads must
// be exactly what ShardTrace computes, for every node count and
// partitioner — including the rebalancing partitioner's static initial
// assignment. Two same-named balanced partitioners with different tables
// shard differently, so they must get different memo entries.
func TestShardOnDemandMatchesShardTrace(t *testing.T) {
	reads := testReads(t, 15_000)
	tr := testTrace(t, reads, 32, 3)
	kcfg := kmer.Config{K: 32, MinCount: 3}
	full, err := kmer.Count(reads, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	half, err := kmer.Count(reads[:len(reads)/2], kcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 8, 64} {
		balA, balB := NewBalancedPartitioner(full, 12, n), NewBalancedPartitioner(half, 12, n)
		for _, p := range []Partitioner{
			HashPartitioner{}, NewMinimizerPartitioner(12), balA, balB, NewRebalancePartitioner(12, 2),
		} {
			name := fmt.Sprintf("n=%d/%s", n, p.id())
			tt := wholeTraffic(tr, n, p)
			st := ShardTrace(tr, n, p)
			if tt.localTNs != st.LocalTNs || tt.remoteTNs != st.RemoteTNs || tt.haloBytes != st.HaloBytes {
				t.Errorf("%s: memo traffic %+v, ShardTrace local %d remote %d halo %d",
					name, *tt, st.LocalTNs, st.RemoteTNs, st.HaloBytes)
			}
			if again := wholeTraffic(tr, n, p); again != tt {
				t.Errorf("%s: second lookup recomputed the traffic split", name)
			}
		}
		if n == 1 {
			continue // one node: both tables own everything
		}
		if balA.Name() != balB.Name() || balA.Fingerprint() == balB.Fingerprint() {
			t.Fatalf("n=%d: balanced partitioners %s#%x and %s#%x are not a same-name, different-table pair",
				n, balA.Name(), balA.Fingerprint(), balB.Name(), balB.Fingerprint())
		}
		if wholeTraffic(tr, n, balA) == wholeTraffic(tr, n, balB) {
			t.Errorf("n=%d: same-named balanced partitioners with different tables share a memo entry", n)
		}
	}
}

// Concurrent Simulate and Restore calls on one shared trace, whose shard
// memo starts cold, must each equal the same run made alone. Under -race
// this checks that the memo's first computation is shared safely.
func TestConcurrentRunsShareShardMemo(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	iters := len(tr.Iterations)
	type run struct {
		cfg  Config
		blob []byte // nil: Simulate; otherwise Restore from it
		want *Result
	}
	var runs []run
	for _, n := range []int{2, 4, 8} {
		for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12), NewRebalancePartitioner(12, 2)} {
			for _, overlap := range []bool{false, true} {
				if _, rb := p.(*RebalancePartitioner); rb && overlap {
					continue
				}
				cfg := DefaultConfig(n)
				cfg.Partitioner = p
				cfg.Overlap = overlap
				cfg.Workers = 2
				want, err := Simulate(reads, tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := Checkpoint(reads, tr, cfg, iters/2)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, run{cfg: cfg, want: want}, run{cfg: cfg, blob: blob, want: want})
			}
		}
	}

	// A trace over the same iterations carries no memo yet.
	shared := &trace.Trace{K: tr.K, Iterations: tr.Iterations}
	got := make([]*Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.blob == nil {
				got[i], errs[i] = Simulate(reads, shared, r.cfg)
			} else {
				got[i], errs[i] = Restore(shared, r.cfg, r.blob)
			}
		}()
	}
	wg.Wait()
	for i, r := range runs {
		what := fmt.Sprintf("n=%d %s overlap=%v restored=%v", r.cfg.Nodes, r.cfg.Partitioner.Name(), r.cfg.Overlap, r.blob != nil)
		if errs[i] != nil {
			t.Fatalf("%s: %v", what, errs[i])
		}
		if !reflect.DeepEqual(got[i], r.want) {
			t.Errorf("%s: concurrent run diverged from the run made alone (%d vs %d cycles)",
				what, got[i].TotalCycles, r.want.TotalCycles)
		}
	}
}
