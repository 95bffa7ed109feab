package scaleout

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/readsim"
)

// referenceCount rebuilds CountSharded's result from the reads with maps
// and one kmer.Count. Source src holds every n-th read from src, and per
// (source, owner) it ships one 12-byte record per distinct k-mer and per
// distinct first and last (k-1)-mer of its reads at least k long, the
// diagonal included; only the k-mer records reach an owner's merge. The
// shards are kmer.Count at MinCount 1 split by owner, each pruned at
// cfg.MinCount with its own statistics.
func referenceCount(t testing.TB, reads []readsim.Read, cfg Config) *ShardedCount {
	t.Helper()
	n, k, p := cfg.Nodes, cfg.K, cfg.Partitioner
	type key struct {
		src, dst int
		w        dna.Kmer
	}
	kmers, prefixes, suffixes := map[key]bool{}, map[key]bool{}, map[key]bool{}
	want := &ShardedCount{
		K: k, Nodes: n,
		Shards:           make([]*kmer.Result, n),
		ReadsPerNode:     make([]int, n),
		ExtractedPerNode: make([]int64, n),
		RecordsToNode:    make([]int64, n),
		CountExchange:    mat(n),
	}
	for ri, rd := range reads {
		s, l := ri%n, rd.Seq.Len()
		want.ReadsPerNode[s]++
		if l < k {
			continue
		}
		for i := 0; i+k <= l; i++ {
			km := dna.KmerFromSeq(rd.Seq, i, k)
			kmers[key{s, p.owners(n).owner(km, k), km}] = true
			want.ExtractedPerNode[s]++
		}
		first, last := dna.KmerFromSeq(rd.Seq, 0, k-1), dna.KmerFromSeq(rd.Seq, l-k+1, k-1)
		prefixes[key{s, p.owners(n).owner(first, k-1), first}] = true
		suffixes[key{s, p.owners(n).owner(last, k-1), last}] = true
	}
	for kk := range kmers {
		want.RecordsToNode[kk.dst]++
		want.CountExchange[kk.src][kk.dst] += countRecordBytes
	}
	for _, m := range []map[key]bool{prefixes, suffixes} {
		for kk := range m {
			want.CountExchange[kk.src][kk.dst] += countRecordBytes
		}
	}

	all, err := kmer.Count(reads, kmer.Config{K: k, Workers: 1, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for dst := range want.Shards {
		want.Shards[dst] = &kmer.Result{K: k}
	}
	minCount := max(cfg.MinCount, 1)
	for _, kc := range all.Kmers {
		sh := want.Shards[p.owners(n).owner(kc.Km, k)]
		sh.TotalExtracted += int64(kc.Count)
		if kc.Count < minCount {
			sh.PrunedKinds++
			sh.PrunedMass += int64(kc.Count)
			continue
		}
		sh.Kmers = append(sh.Kmers, kc)
	}
	return want
}

// checkCount compares a CountSharded result with referenceCount's, field
// by field.
func checkCount(t testing.TB, reads []readsim.Read, cfg Config, sc *ShardedCount) {
	t.Helper()
	want := referenceCount(t, reads, cfg)
	name := cfg.Partitioner.Name()
	if !reflect.DeepEqual(sc.ReadsPerNode, want.ReadsPerNode) {
		t.Errorf("%s n=%d k=%d: ReadsPerNode %v, reference %v", name, cfg.Nodes, cfg.K, sc.ReadsPerNode, want.ReadsPerNode)
	}
	if !reflect.DeepEqual(sc.ExtractedPerNode, want.ExtractedPerNode) {
		t.Errorf("%s n=%d k=%d: ExtractedPerNode %v, reference %v", name, cfg.Nodes, cfg.K, sc.ExtractedPerNode, want.ExtractedPerNode)
	}
	if !reflect.DeepEqual(sc.RecordsToNode, want.RecordsToNode) {
		t.Errorf("%s n=%d k=%d: RecordsToNode %v, reference %v", name, cfg.Nodes, cfg.K, sc.RecordsToNode, want.RecordsToNode)
	}
	if !reflect.DeepEqual(sc.CountExchange, want.CountExchange) {
		t.Errorf("%s n=%d k=%d: CountExchange differs from the reference", name, cfg.Nodes, cfg.K)
	}
	for dst, sh := range sc.Shards {
		if w := want.Shards[dst]; !reflect.DeepEqual(sh, w) {
			t.Errorf("%s n=%d k=%d min=%d: shard %d holds %d k-mers (%d/%d/%d), kmer.Count split by owner %d (%d/%d/%d)",
				name, cfg.Nodes, cfg.K, cfg.MinCount, dst, len(sh.Kmers), sh.TotalExtracted, sh.PrunedKinds, sh.PrunedMass,
				len(w.Kmers), w.TotalExtracted, w.PrunedKinds, w.PrunedMass)
		}
	}
	if len(sc.Shards) != cfg.Nodes || sc.K != cfg.K || sc.Nodes != cfg.Nodes {
		t.Errorf("%s n=%d k=%d: count of %d nodes at k=%d with %d shards", name, cfg.Nodes, cfg.K, sc.Nodes, sc.K, len(sc.Shards))
	}
}

// collidingWords returns c distinct k-mers (k >= 12) in the lowest
// top-digit bucket whose multiplicative hashes agree on their top 12 bits,
// so they share a home slot in every tally table of up to 4,096 slots.
func collidingWords(k, c int) []uint64 {
	r := rand.New(rand.NewSource(1))
	low := dna.KmerMask(k) >> countDigitMax
	var ws []uint64
	seen := map[uint64]bool{}
	home := uint64(0)
	for len(ws) < c {
		x := r.Uint64() & low
		if h := x * fibMul >> 52; (len(ws) == 0 || h == home) && !seen[x] {
			home, seen[x] = h, true
			ws = append(ws, x)
		}
	}
	return ws
}

// A bucket of words that share their home slot runs its probe budget out
// and finishes in the Go map, with the counts, owners and records the
// open-addressing table would have given. Every source but the last holds
// every word, so each word is looked up in the map after the spill.
func TestTallySpills(t *testing.T) {
	const k, n = 32, 3
	ws := collidingWords(k, 64)
	var p HashPartitioner
	tl := tally{mo: p.owners(n), n: n, k: k, recs: make([]int64, n*n), owners: make([]ownerTally, n)}
	v := slices.Concat(ws, ws, ws[8:])
	tl.start(len(v))
	tl.add(0, v[:len(ws)])
	if tl.over == nil {
		t.Fatal("the colliding words never left the table")
	}
	tl.add(1, v[len(ws):2*len(ws)])
	tl.add(2, v[2*len(ws):])
	if len(tl.slots) != len(ws) {
		t.Fatalf("%d slots for %d distinct words", len(tl.slots), len(ws))
	}
	recs := make([]int64, n*n)
	for i, s := range tl.slots {
		want := uint32(3)
		if i < 8 {
			want = 2
		}
		o := p.owners(n).owner(dna.Kmer(s.x), k)
		if s.x != ws[i] || s.n != want || int(s.owner) != o {
			t.Fatalf("slot %d: word %x, %d copies owned by %d; want %x, %d copies owned by %d", i, s.x, s.n, s.owner, ws[i], want, o)
		}
		for src := 0; src < int(want); src++ {
			recs[src*n+o]++
		}
	}
	if !reflect.DeepEqual(tl.recs, recs) {
		t.Fatalf("records %v, want %v", tl.recs, recs)
	}
	var head []uint64
	for _, x := range slices.Sorted(slices.Values(ws[8:])) {
		head = append(head, x, 3<<32|uint64(p.owners(n).owner(dna.Kmer(x), k)))
	}
	if h := tl.finish(v, 3); !slices.Equal(v[:h], head) {
		t.Fatalf("head %x, want the %d words of 3 copies as %x", v[:h], len(ws)-8, head)
	}
}

// decodeCount turns fuzz bytes into a counting config and its reads. Six
// header bytes pick k in [2,32], 1-70 nodes, hash, minimizer or rebalance
// ownership and its minimizer length, MinCount 0-4 with 1-2 workers, and
// 0-40 reads. Each read then takes a length byte (0-80 bases) and its
// bases, four to a byte; once the input runs out, the remaining reads are
// windows of a 160-base template from a generator seeded by the header,
// some with one base changed, so short inputs still repeat their k-mers
// across reads and sources.
func decodeCount(data []byte) (Config, []readsim.Read, bool) {
	if len(data) < 6 {
		return Config{}, nil, false
	}
	k := 2 + int(data[0])%(dna.MaxK-1)
	m := 1 + int(data[3])%(k+1)
	cfg := DefaultConfig(1 + int(data[1])%70)
	cfg.K = k
	cfg.Partitioner = []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(m), NewRebalancePartitioner(m, 1)}[data[2]%3]
	cfg.MinCount = uint32(data[4] % 5)
	cfg.Workers = 1 + int(data[4]/5%2)
	gen := rand.New(rand.NewSource(int64(data[0]) | int64(data[1])<<8 | int64(data[5])<<16 | int64(len(data))<<24))
	template := make([]dna.Base, 160)
	for i := range template {
		template[i] = dna.Base(gen.Intn(4))
	}
	reads := make([]readsim.Read, int(data[5])%41)
	rest := data[6:]
	for i := range reads {
		var bases []dna.Base
		if len(rest) > 0 {
			bases = make([]dna.Base, int(rest[0])%81)
			rest = rest[1:]
			for j := range bases {
				if j/4 < len(rest) {
					bases[j] = dna.Base(rest[j/4] >> (2 * (j % 4)) & 3)
				} else {
					bases[j] = template[j]
				}
			}
			rest = rest[min((len(bases)+3)/4, len(rest)):]
		} else {
			l := gen.Intn(81)
			off := gen.Intn(len(template) - l + 1)
			bases = append([]dna.Base(nil), template[off:off+l]...)
			if l > 0 && gen.Intn(4) == 0 {
				j := gen.Intn(l)
				bases[j] = (bases[j] + 1) & 3
			}
		}
		reads[i] = readsim.Read{Seq: dna.FromBases(bases)}
	}
	return cfg, reads, true
}

// FuzzCountSharded checks CountSharded against referenceCount: the
// per-source extraction, the record counts and exchange bytes of the
// k-mer and terminal records, and every shard against kmer.Count split by
// owner. One seed holds words that collide in one bucket's table, so the
// tally's map fallback runs.
func FuzzCountSharded(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		seed := make([]byte, 6+r.Intn(60))
		r.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{30, 63, 1, 11, 3, 40})
	f.Add([]byte{0, 2, 2, 0, 9, 40})
	// Two nodes, hash ownership, MinCount 3 and 40 reads of one 32-mer
	// each. Each source gets 12 colliding words, then the first 8 again,
	// which it finds in the map.
	collide := []byte{30, 1, 0, 0, 3, 40}
	ws := collidingWords(32, 12)
	for i := 0; i < 40; i++ {
		w := i / 2 // words 0-11 to each source, then 0-7 again
		if i >= 24 {
			w = (i - 24) / 2
		}
		x := ws[w]
		collide = append(collide, 32)
		for b := 0; b < 8; b++ {
			var v byte
			for j := 0; j < 4; j++ {
				v |= byte(x>>(2*(31-(4*b+j)))&3) << (2 * j)
			}
			collide = append(collide, v)
		}
	}
	f.Add(collide)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reads, ok := decodeCount(data)
		if !ok {
			return
		}
		sc, err := CountSharded(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkCount(t, reads, cfg, sc)
	})
}
