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
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
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
}

// rebalanceTrigger is the measured per-iteration imbalance (slowest node
// over mean) below which a rebalance point leaves ownership alone; the
// hysteresis keeps near-balanced replays from thrashing buckets back and
// forth for marginal gains.
const rebalanceTrigger = 1.05

// maxRebalanceNodes bounds the node count of a rebalancing run: its
// ownership table stores node indices as uint16.
const maxRebalanceNodes = 1 << 16

// NewRebalancePartitioner returns a rebalancing partitioner with m-mer
// buckets migrated every `every` iterations (Config.Validate rejects
// m < 1 and every < 1).
func NewRebalancePartitioner(m, every int) *RebalancePartitioner {
	return &RebalancePartitioner{M: m, Every: every}
}

// Name implements Partitioner.
func (p *RebalancePartitioner) Name() string {
	return fmt.Sprintf("rebalance%d/%d", p.M, p.Every)
}

// owners is the static initial assignment (initialOwner; the runtime's
// ownership table starts there and diverges as measurements arrive).
func (p *RebalancePartitioner) owners(nodes int) ownerMap {
	return ownerMap{kind: bucketOwned, m: p.M, nodes: nodes}
}

// id folds in the (constant) migration trigger.
func (p *RebalancePartitioner) id() string { return fmt.Sprintf("%s@%g", p.Name(), rebalanceTrigger) }

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
		if mean <= 0 || est[donor] < rebalanceTrigger*mean || donor == idle {
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

// rebalancer is the migration state of a runtime whose partitioner is a
// RebalancePartitioner: the ownership table the shard feed reads through
// the run's bucket column, the measurements the next migration decision
// reads and the migration accounting. Migrations bound the BSP epochs
// (epochEnd): a decision reads the measurements of the iteration before
// it and rewrites the table, so between two of them ownership is frozen.
// The decision is itself a global synchronization, so it needs the
// barrier BSP already has. Every per-visit reader — the shard feed's
// count pass (ownerOf), the move pricer (move) and the weight rebuild
// (measure) — takes the visit's super-bucket from col, so a run hashes a
// key's bucket once, not once per reader and iteration.
type rebalancer struct {
	p     *RebalancePartitioner
	table []uint16 // bucket -> owning node (mutated by migrations)
	prev  []uint16 // scratch: ownership before the last migration
	col   bucketColumn
	// iterBytes[it] is the global traced MacroNode bytes remaining from
	// iteration it on; the suffix sums estimate how much work remains at
	// each rebalance point (compaction decays fast, so "rest of run over
	// last iteration" is the honest horizon for a migration's payoff).
	iterBytes []float64

	lastDur []sim.Cycle // previous iteration's measured busy time
	cum     []sim.Cycle // measured cumulative busy time
	weight  []int64     // previous iteration's per-bucket bytes

	rebalances    int
	migratedBytes int64
}

// bucketColumn is a rebalancing run's super-bucket column: buckets[i] is
// the minimizer super-bucket of node visit i of iteration at. Iterative
// Compaction only removes MacroNodes, so every key of an iteration is a
// key of the one before it and both visit lists ascend: advance builds the
// next iteration's column with one merge walk over the two lists, copying
// each surviving key's bucket, and hashes only the keys the walk does not
// find — a key missing from the previous iteration, or one out of
// ascending order — so a loaded trace that breaks the rule stays exact.
// Two buffers swap between iterations. A migration rewrites the ownership
// table, never a bucket, so the column survives migrations unchanged.
type bucketColumn struct {
	buckets, spare []uint16
	at             int // the iteration buckets describes; -1 before the first
}

// advance makes the column describe iteration it of tr under m-mer
// minimizers: carried from iteration it-1 when the column describes it,
// otherwise (the first iteration a run or a resumed session steps) every
// key hashed.
func (c *bucketColumn) advance(tr *trace.Trace, it, m int) {
	if c.at == it {
		return
	}
	nodes := tr.Iterations[it].Nodes
	var prev []trace.NodeOp
	if it > 0 && c.at == it-1 {
		prev = tr.Iterations[it-1].Nodes
	}
	kk := tr.K - 1
	next := grow(c.spare, len(nodes))
	j := 0
	for i := range nodes {
		key := nodes[i].Key
		for j < len(prev) && prev[j].Key < key {
			j++
		}
		if j < len(prev) && prev[j].Key == key {
			next[i] = c.buckets[j]
		} else {
			next[i] = uint16(superBucket(key, kk, m))
		}
	}
	c.buckets, c.spare, c.at = next, c.buckets, it
}

// newRebalancer starts the migration state of an n-node run over tr: the
// static initial assignment when ck is nil, otherwise the blob's migrated
// table and measurements. Its bucket column starts empty either way.
func newRebalancer(tr *trace.Trace, n int, p *RebalancePartitioner, ck *CheckpointState) *rebalancer {
	iters := len(tr.Iterations)
	rb := &rebalancer{
		p:         p,
		table:     make([]uint16, BalancedBuckets),
		prev:      make([]uint16, BalancedBuckets),
		col:       bucketColumn{at: -1},
		iterBytes: make([]float64, iters+1),
		lastDur:   make([]sim.Cycle, n),
		cum:       make([]sim.Cycle, n),
		weight:    make([]int64, BalancedBuckets),
	}
	for it := iters - 1; it >= 0; it-- {
		var b float64
		for i := range tr.Iterations[it].Nodes {
			nd := &tr.Iterations[it].Nodes[i]
			b += float64(nd.D1 + nd.D2)
		}
		rb.iterBytes[it] = b + rb.iterBytes[it+1]
	}
	if ck == nil {
		for b := range rb.table {
			rb.table[b] = uint16(initialOwner(b, n))
		}
		return rb
	}
	rs := ck.Rebalance
	copy(rb.table, rs.Table)
	copy(rb.cum, rs.Cum)
	copy(rb.lastDur, rs.LastDur)
	copy(rb.weight, rs.Weight)
	rb.rebalances, rb.migratedBytes = rs.Rebalances, rs.MigratedBytes
	return rb
}

// ownerOf is the shard feed's owner of node visit i of the iteration the
// column describes: its bucket's owner under the current table.
func (rb *rebalancer) ownerOf(_ dna.Kmer, i int) int {
	return int(rb.table[rb.col.buckets[i]])
}

// move is a migration's move of node visit i of the iteration the column
// describes: from its bucket's owner before the migration to its owner
// after.
func (rb *rebalancer) move(_ dna.Kmer, i int) (from, to int) {
	b := rb.col.buckets[i]
	return int(rb.prev[b]), int(rb.table[b])
}

// migrateAt runs the migration decision before iteration it when it is a
// rebalance point, against the measurements accumulated so far, and, when
// buckets move, advances the bucket column to iteration it and prices the
// transfer over the network from it.
//
// Every live MacroNode appears in its iteration's trace (P1 visits the
// full live population each iteration), so pricing the move off
// iter.Nodes charges every node a bucket move relocates; a migration
// that moves only drained buckets (no live nodes left) is a no-op and
// is not counted.
func (rt *runtime) migrateAt(it int) {
	rb, n := rt.rb, rt.n
	if it == 0 || it%rb.p.Every != 0 || n == 1 {
		return
	}
	copy(rb.prev, rb.table)
	lastBytes := rb.iterBytes[it-1] - rb.iterBytes[it]
	decay := 0.0
	if lastBytes > 0 {
		decay = rb.iterBytes[it] / lastBytes
	}
	if !rb.p.migrate(rb.table, rb.cum, rb.lastDur, rb.weight, decay, n) {
		return
	}
	rb.col.advance(rt.tr, it, rb.p.M)
	moved := rt.moveNodes(it, telemetry.SpanMigration, rb.move)
	if moved > 0 {
		rb.migratedBytes += moved
		rb.rebalances++
	}
}

// moveNodes is the one pricer of an ownership change before iteration it,
// shared by rebalance migrations and the elastic re-partition: every
// MacroNode of the iteration's trace whose move — asked with the visit's
// key and index, as the shard feed's owner is — sends from one node to
// another is charged at its traced size over the network, as one
// all-to-all stalling the phase clock as a span of kind. The byte matrix
// is the runtime's own, cleared and refilled per call. Returns the bytes
// moved.
func (rt *runtime) moveNodes(it int, kind telemetry.SpanKind, move func(key dna.Kmer, i int) (from, to int)) int64 {
	m := rt.moves.take(1, rt.n)[0]
	iter := &rt.tr.Iterations[it]
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		if from, to := move(nd.Key, i); from != to {
			m[from][to] += int64(nd.D1 + nd.D2)
		}
	}
	c := &rt.clock
	mx := c.fl.Exchange(m, c.pr.linkAt(c.now()))
	if mx.TotalBytes > 0 {
		c.exchangedBytes += mx.TotalBytes
		c.stall(&c.exchange, kind, it, mx.Cycles, mx.TotalBytes)
	}
	return mx.TotalBytes
}

// measure records supersteps [from, to)'s measured busy times and
// rebuilds the per-bucket bytes that attribute them, for the next
// migration decision. Only the last superstep's bytes are ever read — by
// the migration that may open the next epoch and by a checkpoint taken
// between epochs — so they are built once, from iteration to-1, which the
// bucket column describes once the epoch is stepped.
func (rt *runtime) measure(from, to int) {
	rb := rt.rb
	for it := from; it < to; it++ {
		for i := range rb.lastDur {
			rb.lastDur[i] = rt.durations[i][it]
			rb.cum[i] += rb.lastDur[i]
		}
	}
	clear(rb.weight)
	iter := &rt.tr.Iterations[to-1]
	for i := range iter.Nodes {
		nd := &iter.Nodes[i]
		rb.weight[rb.col.buckets[i]] += int64(nd.D1 + nd.D2)
	}
}

// state is the run's migration checkpoint section; t is the halo
// accounting over the iterations executed so far. Its slices are the
// rebalancer's own, valid until the run advances.
func (rb *rebalancer) state(t traffic) *RebalanceState {
	return &RebalanceState{
		Table:         rb.table,
		Cum:           rb.cum,
		LastDur:       rb.lastDur,
		Weight:        rb.weight,
		LocalTNs:      t.localTNs,
		RemoteTNs:     t.remoteTNs,
		HaloBytes:     t.haloBytes,
		Rebalances:    rb.rebalances,
		MigratedBytes: rb.migratedBytes,
	}
}
