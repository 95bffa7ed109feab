// Measurement-driven re-partitioning: a RebalancePartitioner starts from
// a static minimizer super-bucket assignment (the communication-friendly
// scheme) and lets the distributed runtime migrate whole super-buckets
// from measured stragglers to measured idle nodes between compaction
// iterations. Unlike BalancedPartitioner — which predicts load once from
// a counting sample — the rebalancer reacts to the busy times the
// runtime actually records (the per-iteration durations), so it corrects
// skew the static sample could not see (repeat families whose replay
// cost is out of proportion to their k-mer mass, drift as compaction
// drains the graph). Migration is not free: every MacroNode whose bucket
// moves is charged over the interconnect at its traced size before the
// next iteration begins.
package scaleout

import (
	"fmt"
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/nmp"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// RebalancePartitioner assigns ownership by minimizer super-bucket (the
// BalancedBuckets-wide table every bucket scheme here shares) and marks
// the assignment as migratable: the distributed runtime re-shards the
// compaction replay between iterations, moving buckets off measured
// stragglers. Outside the compaction replay (counting, construction) the
// static initial assignment applies, so ownership stays a pure function
// of the key wherever nodes must agree without coordination.
type RebalancePartitioner struct {
	// M is the minimizer length defining the super-bucket migration unit.
	M int
	// Every is the rebalance period: ownership may change before
	// iterations Every, 2*Every, ... (>= 1).
	Every int
	// Trigger is the measured per-iteration imbalance (slowest node over
	// mean) below which a rebalance point leaves ownership alone; the
	// hysteresis keeps near-balanced replays from thrashing buckets back
	// and forth for marginal gains.
	Trigger float64
}

// NewRebalancePartitioner returns a rebalancing partitioner with m-mer
// buckets migrated every `every` iterations and the default 1.05
// imbalance trigger.
func NewRebalancePartitioner(m, every int) *RebalancePartitioner {
	if m < 1 {
		m = 1
	}
	if every < 1 {
		every = 1
	}
	return &RebalancePartitioner{M: m, Every: every, Trigger: 1.05}
}

// Name implements Partitioner.
func (p *RebalancePartitioner) Name() string {
	return fmt.Sprintf("rebalance%d/%d", p.M, p.Every)
}

// bucket maps a word to its minimizer super-bucket.
func (p *RebalancePartitioner) bucket(key dna.Kmer, kk int) int {
	return superBucket(key, kk, p.M)
}

// Owner implements Partitioner with the static initial assignment
// (initialOwner; the runtime's ownership table starts there and diverges
// as measurements arrive).
func (p *RebalancePartitioner) Owner(key dna.Kmer, kk, nodes int) int {
	if nodes <= 1 {
		return 0
	}
	return initialOwner(p.bucket(key, kk), nodes)
}

// migrate mutates the bucket ownership table, moving buckets from
// predicted stragglers to predicted idle nodes so that the end-of-run
// cumulative busy times — the quantity Result.Imbalance measures — meet
// in the middle. cum is the measured cumulative busy time per node, dur
// the last iteration's measured busy time, weight the last iteration's
// per-bucket traced MacroNode bytes (the proxy attributing a node's
// measured time to its buckets), and decay the trace-derived ratio of
// remaining work to the last iteration's work, which converts a one-
// iteration transfer into its effect on the rest of the run. Returns
// whether any bucket moved. Deterministic: ties break on the lower node
// index and lower bucket index.
func (p *RebalancePartitioner) migrate(table []uint16, cum, dur []sim.Cycle, weight []int64, decay float64, nodes int) bool {
	if decay <= 0 {
		return false // nothing left to rebalance for
	}
	// Predicted final cumulative busy time: what is banked plus the last
	// iteration's rate carried over the estimated remaining work.
	est := make([]float64, nodes)
	for i := range est {
		est[i] = float64(cum[i]) + float64(dur[i])*decay
	}
	load := make([]int64, nodes) // weight currently attributed per node
	for b, w := range weight {
		load[table[b]] += w
	}
	// Buckets grouped per node, heaviest first, for donor scans.
	byNode := make([][]int, nodes)
	for b, w := range weight {
		if w > 0 {
			o := table[b]
			byNode[o] = append(byNode[o], b)
		}
	}
	for _, bs := range byNode {
		sort.Slice(bs, func(i, j int) bool {
			if weight[bs[i]] != weight[bs[j]] {
				return weight[bs[i]] > weight[bs[j]]
			}
			return bs[i] < bs[j]
		})
	}
	moved := false
	for round := 0; round < nodes; round++ {
		donor, idle := 0, 0
		var mean float64
		for i := range est {
			mean += est[i]
			if est[i] > est[donor] {
				donor = i
			}
			if est[i] < est[idle] {
				idle = i
			}
		}
		mean /= float64(nodes)
		if mean <= 0 || est[donor] < p.Trigger*mean || donor == idle {
			break
		}
		if load[donor] <= 0 || dur[donor] <= 0 {
			break // no attributable weight to move
		}
		// cycles-per-weight rate of the donor, carried over the remaining
		// run, converts bucket weight into predicted final busy time; move
		// buckets until half the gap closes.
		rate := float64(dur[donor]) / float64(load[donor]) * decay
		target := (est[donor] - est[idle]) / 2
		var transferred float64
		rest := byNode[donor][:0]
		for _, b := range byNode[donor] {
			w := float64(weight[b]) * rate
			if transferred < target && transferred+w <= target*2 {
				table[b] = uint16(idle)
				load[donor] -= weight[b]
				load[idle] += weight[b]
				transferred += w
				byNode[idle] = append(byNode[idle], b)
				moved = true
				continue
			}
			rest = append(rest, b)
		}
		byNode[donor] = rest
		if transferred == 0 {
			break // every remaining donor bucket overshoots; stop
		}
		// Restore the recipient's heaviest-first order (the received batch
		// was appended out of place) in case a later round makes it the
		// donor.
		sort.Slice(byNode[idle], func(i, j int) bool {
			bi, bj := byNode[idle][i], byNode[idle][j]
			if weight[bi] != weight[bj] {
				return weight[bi] > weight[bj]
			}
			return bi < bj
		})
		est[donor] -= transferred
		est[idle] += transferred
	}
	return moved
}

// rebalanceRun is the dynamic-ownership compaction runtime: BSP
// supersteps (the migration decision is itself a global synchronization,
// so the BSP barrier it needs is already there), with the bucket table
// re-fit between iterations from the measured per-node busy times, and
// the moved MacroNodes charged over the network at their traced sizes
// before the iteration that uses the new placement. A run can be advanced
// iteration range by iteration range: Simulate drives it start to finish,
// while the checkpoint layer (checkpoint.go) stops mid-way, snapshots the
// mutable state (ownership table, measured busy times, bucket weights,
// engines, accounting) and later reconstructs an equivalent run that
// finishes bit-identically.
type rebalanceRun struct {
	tr  *trace.Trace
	cfg Config
	p   *RebalancePartitioner
	res *Result // prelude outcome, finished by seal

	n, iters, k1 int

	// feed shards each epoch under the current ownership table; its
	// traffic split is the run's halo accounting.
	feed          shardFeed
	rebalances    int
	migratedBytes int64
	engines       []*nmp.Engine
	durations     [][]sim.Cycle

	table []uint16 // bucket -> owning node (mutated by migrations)
	// iterBytes[it] is the global traced MacroNode bytes remaining from
	// iteration it on; the suffix sums estimate how much work remains at
	// each rebalance point (compaction decays fast, so "rest of run over
	// last iteration" is the honest horizon for a migration's payoff).
	iterBytes []float64

	lastDur []sim.Cycle // previous iteration's measured busy time
	cum     []sim.Cycle // measured cumulative busy time
	weight  []int64     // previous iteration's per-bucket bytes
	prev    []uint16    // scratch: ownership before the last migration

	// clock holds the BSP partial sums; its exchangedBytes count the halo
	// exchanges and the migrations.
	clock phaseClock

	// pr is the run's telemetry glue; nil disables every recording site.
	pr *probes
}

// newRebalanceRun prepares a dynamic-ownership run: fresh when ck is nil
// (static initial assignment, empty node traces, engines at iteration 0),
// otherwise at the blob's pause point with the migrated table, the
// measurements the next decision reads and the accumulated accounting.
// A resumed run's node traces hold empty placeholders behind the cursor
// (a resumed engine never reads them); their iteration-0 quantile tables
// — the engines' static DIMM mapping option — come from the trace's
// memoized shard facts under the partitioner's static initial
// assignment, which the run started from.
func newRebalanceRun(tr *trace.Trace, net topo.Network, cfg Config, p *RebalancePartitioner, res *Result, ck *CheckpointState, pr *probes) (*rebalanceRun, error) {
	n := cfg.Nodes
	iters := len(tr.Iterations)
	rr := &rebalanceRun{
		tr: tr, cfg: cfg, p: p, res: res, pr: pr,
		n: n, iters: iters, k1: tr.K - 1,
		engines:   make([]*nmp.Engine, n),
		durations: make([][]sim.Cycle, n),
		table:     make([]uint16, BalancedBuckets),
		iterBytes: make([]float64, iters+1),
		lastDur:   make([]sim.Cycle, n),
		cum:       make([]sim.Cycle, n),
		weight:    make([]int64, BalancedBuckets),
		prev:      make([]uint16, BalancedBuckets),
		clock:     newPhaseClock(net, cfg, iters),
	}
	rr.clock.pr = pr
	rr.feed = newShardFeed(tr, n, rr.ownerOf, nil)
	for it := iters - 1; it >= 0; it-- {
		var b float64
		for i := range tr.Iterations[it].Nodes {
			nd := &tr.Iterations[it].Nodes[i]
			b += float64(nd.D1 + nd.D2)
		}
		rr.iterBytes[it] = b + rr.iterBytes[it+1]
	}
	if ck == nil {
		for b := range rr.table {
			rr.table[b] = uint16(initialOwner(b, n))
		}
	} else {
		rs := ck.Rebalance
		copy(rr.table, rs.Table)
		copy(rr.cum, rs.Cum)
		copy(rr.lastDur, rs.LastDur)
		copy(rr.weight, rs.Weight)
		rr.clock.restore(ck)
		rr.feed.traffic = traffic{rs.LocalTNs, rs.RemoteTNs, rs.HaloBytes}
		rr.rebalances, rr.migratedBytes = rs.Rebalances, rs.MigratedBytes
		if ck.ResumeIter > 0 {
			rr.feed.resumeAt(ck.ResumeIter, shardFactsOf(tr, n, p).quantiles)
		}
	}
	if err := startEngines(rr.engines, rr.durations, rr.feed.traces, cfg.NMP, iters, ck); err != nil {
		return nil, err
	}
	if pr != nil {
		pr.attach(rr.engines)
	}
	return rr, nil
}

// migrateAt runs the iteration-it migration decision against the
// measurements accumulated so far and, when buckets move, prices the
// transfer over the network.
//
// Every live MacroNode appears in its iteration's trace (P1 visits the
// full live population each iteration), so pricing the move off
// iter.Nodes charges every node a bucket move relocates; a migration
// that moves only drained buckets (no live nodes left) is a no-op and
// is not counted.
func (rr *rebalanceRun) migrateAt(it int) {
	n, p := rr.n, rr.p
	iter := &rr.tr.Iterations[it]
	copy(rr.prev, rr.table)
	lastBytes := rr.iterBytes[it-1] - rr.iterBytes[it]
	decay := 0.0
	if lastBytes > 0 {
		decay = rr.iterBytes[it] / lastBytes
	}
	if !p.migrate(rr.table, rr.cum, rr.lastDur, rr.weight, decay, n) {
		return
	}
	move := mat(n)
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		b := p.bucket(nd.Key, rr.k1)
		if rr.prev[b] != rr.table[b] {
			move[rr.prev[b]][rr.table[b]] += int64(nd.D1 + nd.D2)
		}
	}
	mx := rr.clock.doExchange(move)
	if mx.TotalBytes > 0 {
		rr.clock.stall(&rr.clock.exchange, telemetry.SpanMigration, it, mx.Cycles, mx.TotalBytes)
		rr.clock.exchangedBytes += mx.TotalBytes
		rr.migratedBytes += mx.TotalBytes
		rr.rebalances++
	}
}

// refreshWeights rebuilds the per-bucket bytes that attribute iteration
// it's measured time for the next migration decision.
func (rr *rebalanceRun) refreshWeights(it int) {
	clear(rr.weight)
	for i := range rr.tr.Iterations[it].Nodes {
		nd := &rr.tr.Iterations[it].Nodes[i]
		rr.weight[rr.p.bucket(nd.Key, rr.k1)] += int64(nd.D1 + nd.D2)
	}
}

// advance executes iterations [from, to) epoch by epoch. Migrations
// bound the epochs: a migration decision reads the measurements of the
// iteration before it and rewrites the table the shard feed reads, so
// between two of them ownership is frozen. Each epoch re-fits ownership
// at its start (charging the moved MacroNodes over the network,
// straggler -> new owner), shards its iterations under the current
// table, pre-steps every engine through it, then drains the supersteps
// and refreshes the measurement state the next decision reads.
func (rr *rebalanceRun) advance(from, to int) error {
	for it := from; it < to; {
		if it > 0 && it%rr.p.Every == 0 && rr.n > 1 {
			rr.migrateAt(it)
		}
		end := min((it/rr.p.Every+1)*rr.p.Every, to)
		halos := rr.feed.shard(it, end)
		prestep(rr.engines, nil, rr.durations, it, end, rr.cfg.Workers, rr.pr)
		for j := it; j < end; j++ {
			rr.clock.superstep(j, rr.durations, halos[j-it])
			for i := 0; i < rr.n; i++ {
				rr.lastDur[i] = rr.durations[i][j]
				rr.cum[i] += rr.lastDur[i]
			}
			rr.refreshWeights(j)
		}
		it = end
	}
	return nil
}

// ownerOf resolves a key under the current ownership table.
func (rr *rebalanceRun) ownerOf(key dna.Kmer) int {
	return int(rr.table[rr.p.bucket(key, rr.k1)])
}

// phase implements phaseRun.
func (rr *rebalanceRun) phase() *phaseClock { return &rr.clock }

// seal implements phaseRun: the engines and the phase, plus the traffic
// and migration accounting the dynamic runtime measured itself.
func (rr *rebalanceRun) seal() error {
	rr.feed.record(rr.res)
	rr.res.Rebalances = rr.rebalances
	rr.res.MigratedBytes = rr.migratedBytes
	finalize(rr.res, &rr.clock, rr.durations, rr.engines)
	return nil
}

// state is the run's migration checkpoint section.
func (rr *rebalanceRun) state() *RebalanceState {
	return &RebalanceState{
		Table:         append([]uint16(nil), rr.table...),
		Cum:           append([]sim.Cycle(nil), rr.cum...),
		LastDur:       append([]sim.Cycle(nil), rr.lastDur...),
		Weight:        append([]int64(nil), rr.weight...),
		LocalTNs:      rr.feed.localTNs,
		RemoteTNs:     rr.feed.remoteTNs,
		HaloBytes:     rr.feed.haloBytes,
		Rebalances:    rr.rebalances,
		MigratedBytes: rr.migratedBytes,
	}
}
