package scaleout

import (
	"fmt"
	"sort"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
)

// Partitioner assigns ownership of k-mers (during counting) and MacroNode
// keys (during graph construction and compaction replay) to scale-out
// nodes. Ownership must be a pure function of the key so that every node
// computes the same assignment without coordination, exactly as PaKman's
// MPI ranks do. The set is sealed: HashPartitioner, MinimizerPartitioner,
// BalancedPartitioner and RebalancePartitioner are every partitioner
// there is, each resolving to one owner map, and Config.Validate checks
// their parameters.
type Partitioner interface {
	// Name identifies the strategy in reports.
	Name() string
	// owners returns the partitioner's owner map over nodes, the one
	// place a word's owner is decided: owners(nodes).owner(key, kk) is
	// the owning node in [0, nodes) of a length-kk word.
	owners(nodes int) ownerMap
	// id is the partitioner's identity: its Name, refined by whatever
	// else decides its owners, so that two partitioners with the same id
	// assign every key alike. Checkpoint matching and the per-trace shard
	// memo both key on it.
	id() string
}

// mix64 is the splitmix64 finalizer, a cheap high-quality bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashPartitioner owns a key by a hash of the full word — the maximally
// balanced assignment (every key is an independent coin flip), at the cost
// of scattering adjacent graph nodes across the machine, which makes
// essentially all TransferNode traffic cross-node at large N.
type HashPartitioner struct{}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

func (HashPartitioner) owners(nodes int) ownerMap { return ownerMap{kind: perKey, nodes: nodes} }

func (p HashPartitioner) id() string { return p.Name() }

// MinimizerPartitioner owns a key by the hash of its minimizer: the m-mer
// of the word with the smallest hashed value. Words sharing a minimizer —
// in particular most consecutive k-mers of a read, and a MacroNode key
// with most of its graph neighbors — land on the same node, trading some
// load balance for communication locality.
type MinimizerPartitioner struct {
	M int // minimizer length; clamped to the word length
}

// NewMinimizerPartitioner returns a minimizer partitioner with m-mer
// length m (the literature's common choice for k=32 is m in [8,16];
// Config.Validate rejects m < 1).
func NewMinimizerPartitioner(m int) MinimizerPartitioner {
	return MinimizerPartitioner{M: m}
}

// Name implements Partitioner.
func (p MinimizerPartitioner) Name() string { return fmt.Sprintf("minimizer%d", p.M) }

func (p MinimizerPartitioner) owners(nodes int) ownerMap {
	return ownerMap{kind: minimizerOwned, m: p.M, nodes: nodes}
}

func (p MinimizerPartitioner) id() string { return p.Name() }

// minimizerOf returns the least hash among the m-mers of a kk-length word
// (the word itself, unhashed, when m >= kk).
func minimizerOf(key dna.Kmer, kk, m int) uint64 {
	if m >= kk {
		return uint64(key)
	}
	mask := dna.KmerMask(m)
	w := uint64(key)
	best := ^uint64(0)
	for i := 0; i+m <= kk; i++ {
		mm := (w >> (2 * uint(kk-m-i))) & mask
		if h := mix64(mm); h < best {
			best = h
		}
	}
	return best
}

// BalancedBuckets is the number of minimizer super-buckets a
// BalancedPartitioner bins; with B buckets over n nodes the greedy
// assignment can equalize any mass profile to within the heaviest single
// bucket's weight.
const BalancedBuckets = 4096

// balancedSpillDivisor sets the heavy-bucket threshold: a super-bucket
// holding more than 1/(divisor*nodes) of the total observed mass is
// scattered per key instead of owned whole. The heavy buckets are exactly
// the repeat-family ones whose replay cost is both large and strongly
// time-correlated, so binning them whole puts an unpredictable lump on
// one node; per-key scattering dilutes that lump machine-wide the way
// hash partitioning does, while the long tail of light buckets keeps its
// minimizer locality and weight-aware placement.
const balancedSpillDivisor = 128

// scatterOwner marks a spilled bucket in the assignment table.
const scatterOwner = ^uint16(0)

// superBucket maps a word to its minimizer super-bucket; every
// bucket-table scheme (BalancedPartitioner, RebalancePartitioner) shares
// this mapping so their tables stay comparable.
func superBucket(key dna.Kmer, kk, m int) int {
	return int(mix64(minimizerOf(key, kk, m)) % BalancedBuckets)
}

// initialOwner is the coordination-free bucket-coherent hash assignment
// of a super-bucket: BalancedPartitioner uses it for buckets its sample
// never saw (and for foreign node counts), RebalancePartitioner as the
// static assignment its runtime migrations start from.
func initialOwner(bucket, nodes int) int {
	return int(mix64(uint64(bucket)+0x9e3779b97f4a7c15) % uint64(nodes))
}

// BalancedPartitioner owns keys by minimizer super-bucket, with buckets
// assigned to nodes by greedy weight-aware binning instead of a hash: the
// buckets are ranked by observed k-mer mass (sampled from a counting
// result) and handed, heaviest first, to the least-loaded node (LPT
// scheduling), except that buckets heavy enough to distort any binning
// are scattered per key. This attacks the measured Result.Imbalance head
// on — pure minimizer partitioning is blind to the mass skew that
// repeat-heavy genomes concentrate in a few minimizer buckets — while
// keeping most of the minimizer scheme's communication locality.
// Ownership stays a pure function of the key: the bucket table is built
// once from the counting sample and baked into the value, so every node
// computes the same assignment without coordination.
type BalancedPartitioner struct {
	M     int
	nodes int      // node count the table was built for
	table []uint16 // bucket -> owning node, or scatterOwner
}

// NewBalancedPartitioner builds a weight-aware partitioner for an n-node
// machine from an observed counting result: every counted k-mer deposits
// its count on the super-buckets of its two boundary (k-1)-mers — the
// MacroNode keys the compaction replay partitions by — and the buckets
// are then greedy-binned (heavy outliers: scattered). m is the minimizer
// length (Config.Validate rejects m < 1). A nil res is an empty sample.
func NewBalancedPartitioner(res *kmer.Result, m, nodes int) BalancedPartitioner {
	if nodes < 1 {
		nodes = 1
	}
	if res == nil {
		res = &kmer.Result{}
	}
	p := BalancedPartitioner{M: m, nodes: nodes, table: make([]uint16, BalancedBuckets)}
	weight := make([]int64, BalancedBuckets)
	k1 := res.K - 1
	var total int64
	for _, kc := range res.Kmers {
		weight[superBucket(kc.Km.Prefix(), k1, m)] += int64(kc.Count)
		weight[superBucket(kc.Km.Suffix(res.K), k1, m)] += int64(kc.Count)
		total += 2 * int64(kc.Count)
	}
	// Spill the heavy outliers, then LPT the rest: heaviest bucket first
	// onto the least-loaded node, with deterministic tie-breaks (bucket
	// index, then node index). On a sample too sparse for the divisor the
	// integer threshold would truncate to 0 and spill every non-empty
	// bucket (degenerating into per-key hashing); spill nothing instead.
	thresh := total / (balancedSpillDivisor * int64(nodes))
	if thresh == 0 {
		thresh = total
	}
	order := make([]int, 0, BalancedBuckets)
	for b, w := range weight {
		if w > thresh {
			p.table[b] = scatterOwner
			continue
		}
		if w == 0 {
			// Buckets the sample never touched carry no information; LPT
			// would pile them all onto the least-loaded (initially first)
			// node. Hash the bucket instead — pure and bucket-coherent —
			// so unseen keys spread evenly.
			p.table[b] = uint16(initialOwner(b, nodes))
			continue
		}
		order = append(order, b)
	}
	sort.Slice(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, nodes)
	for _, b := range order {
		least := 0
		for i := 1; i < nodes; i++ {
			if load[i] < load[least] {
				least = i
			}
		}
		p.table[b] = uint16(least)
		load[least] += weight[b]
	}
	return p
}

// Name implements Partitioner.
func (p BalancedPartitioner) Name() string { return fmt.Sprintf("balanced%d", p.M) }

// Fingerprint digests the assignment table (FNV-1a over the bucket
// owners), distinguishing same-named partitioners built from different
// samples or node counts; memoizing callers fold it into their cache
// keys.
func (p BalancedPartitioner) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(p.nodes)) * 1099511628211
	for _, o := range p.table {
		h = (h ^ uint64(o)) * 1099511628211
	}
	return h
}

// owners follows, for the node count the table was built for, the
// weight-aware binning (spilled buckets: per-key scatter); any other count
// falls back to hashing the super-bucket (still pure and bucket-coherent,
// just not weight-aware).
func (p BalancedPartitioner) owners(nodes int) ownerMap {
	if nodes == p.nodes && p.table != nil {
		return ownerMap{kind: tableOwned, m: p.M, nodes: nodes, table: p.table}
	}
	return ownerMap{kind: bucketOwned, m: p.M, nodes: nodes}
}

// id folds in the table's Fingerprint: two same-named instances built
// from different samples shard differently.
func (p BalancedPartitioner) id() string { return fmt.Sprintf("%s#%016x", p.Name(), p.Fingerprint()) }

// ownerKind is how an ownerMap resolves an owner.
type ownerKind uint8

const (
	perKey         ownerKind = iota // mix64 of the word
	minimizerOwned                  // mix64 of the minimizer
	bucketOwned                     // initialOwner of the super-bucket
	tableOwned                      // a BalancedPartitioner's table row
)

// ownerMap is one partitioner's owner assignment over a node count: it
// maps a word, or a window minimum with the word it belongs to, to its
// owner. owner is the per-word kernel; endOwners computes the same owners
// for the two ends of a k-mer at once.
type ownerMap struct {
	kind  ownerKind
	m     int
	nodes int
	table []uint16
}

// owner returns the owner of the kk-length word key: mix64 of the word
// for perKey, otherwise the owner of its minimizer (minimizerOf).
func (mo ownerMap) owner(key dna.Kmer, kk int) int {
	if mo.nodes <= 1 {
		return 0
	}
	if mo.kind == perKey {
		return int(mix64(uint64(key)) % uint64(mo.nodes))
	}
	return int(mo.of(minimizerOf(key, kk, mo.m), uint64(key)))
}

// endOwners returns the owners of the leading and trailing (k-1)-mers of
// k-mer km, exactly as owner assigns each. A minimizer scheme hashes each
// of the k-m+1 m-mers of km once: the prefix's minimizer is the least of
// hashes 0..k-m-1 and the suffix's the least of hashes 1..k-m, so the
// shared middle is scanned once, and a word no longer than the m-mer is
// its own minimizer, unhashed (minimizerOf).
func (mo ownerMap) endOwners(km dna.Kmer, k int) (po, so int) {
	if mo.nodes <= 1 {
		return 0, 0
	}
	pre, suf := km.Prefix(), km.Suffix(k)
	if mo.kind == perKey || mo.m >= k-1 {
		return int(mo.of(uint64(pre), uint64(pre))), int(mo.of(uint64(suf), uint64(suf)))
	}
	w, mask := uint64(km), dna.KmerMask(mo.m)
	span := k - mo.m // the last m-mer of km starts at base span
	mid := ^uint64(0)
	for i := 1; i < span; i++ {
		mid = min(mid, mix64(w>>(2*uint(span-i))&mask))
	}
	first, last := mix64(w>>(2*uint(span))&mask), mix64(w&mask)
	return int(mo.of(min(first, mid), uint64(pre))), int(mo.of(min(mid, last), uint64(suf)))
}

// of returns the owner of word x whose minimizer is best. Per-key
// ownership, and a spilled bucket, own x by its own hash.
func (mo ownerMap) of(best, x uint64) uint32 {
	switch mo.kind {
	case minimizerOwned:
		return uint32(mix64(best) % uint64(mo.nodes))
	case bucketOwned:
		return uint32(initialOwner(int(mix64(best)%BalancedBuckets), mo.nodes))
	case tableOwned:
		if o := mo.table[mix64(best)%BalancedBuckets]; o != scatterOwner {
			return uint32(o)
		}
	}
	return uint32(mix64(x) % uint64(mo.nodes))
}
