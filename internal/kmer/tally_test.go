package kmer

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/readsim"
)

// kmerReads returns one read per word, each exactly k bases long, so that
// it holds that k-mer alone.
func kmerReads(words []uint64, k int) []readsim.Read {
	reads := make([]readsim.Read, len(words))
	for i, x := range words {
		reads[i] = readsim.Read{Seq: dna.Kmer(x).Seq(k)}
	}
	return reads
}

// polyReads returns n reads of length bases of b alone.
func polyReads(b dna.Base, length, n int) []readsim.Read {
	bases := make([]dna.Base, length)
	for i := range bases {
		bases[i] = b
	}
	reads := make([]readsim.Read, n)
	for i := range reads {
		reads[i] = readsim.Read{Seq: dna.FromBases(bases)}
	}
	return reads
}

// randomReads returns n reads of length random bases.
func randomReads(r *rand.Rand, length, n int) []readsim.Read {
	reads := make([]readsim.Read, n)
	bases := make([]dna.Base, length)
	for i := range reads {
		for j := range bases {
			bases[j] = dna.Base(r.Intn(4))
		}
		reads[i] = readsim.Read{Seq: dna.FromBases(bases)}
	}
	return reads
}

// repeated returns each word c times for a c drawn from 1..maxCopies, so
// that MinCount keeps some and prunes others.
func repeated(r *rand.Rand, words []uint64, maxCopies int) []uint64 {
	var out []uint64
	for _, x := range words {
		for range 1 + r.Intn(maxCopies) {
			out = append(out, x)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// topBucketLen returns the length of the longest top-digit bucket Count
// makes of words at k.
func topBucketLen(words []uint64, k int) int {
	shift := uint(max(2*k-digitBits, 0))
	n := map[uint64]int{}
	longest := 0
	for _, x := range words {
		n[x>>shift]++
		longest = max(longest, n[x>>shift])
	}
	return longest
}

// colliding returns n distinct k = 32 words of top-digit bucket 0 whose
// home slot is the same in the table count sizes for n words, so that
// tallying them once each takes about n²/2 probes.
func colliding(r *rand.Rand, n int) []uint64 {
	shift := uint(64 - bits.Len(uint(2*n-1)))
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		x := r.Uint64() >> digitBits
		if x*fibMul>>shift == 0 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestCountTallyEdges compares the whole Result of Count with CountNaive on
// inputs built to reach every path of the bucket tally: one key filling a
// bucket in the table and, past tallyMax words, through the digit split;
// a bucket longer than the table cap with many keys; the all-A and all-G
// words at k = 32, which leave no key value free to mark an empty slot;
// k < 6, with fewer buckets than the widest digit; and a bucket whose keys
// collide past the probe budget, so the sort fallback runs. Every input
// runs at MinCount 0, 1, 3 and above every count.
func TestCountTallyEdges(t *testing.T) {
	r := rand.New(rand.NewSource(38))

	// Bucket 0 at k = 32: distinct words under an all-A top digit, each
	// repeated up to four times, then some of them beside more all-A words
	// than a table holds, so that splitting recurses down to one key.
	var under []uint64
	for range 4000 {
		under = append(under, r.Uint64()>>digitBits)
	}
	long := repeated(r, under, 4)
	longPoly := append(repeated(r, under[:1000], 3), make([]uint64, tallyMax+800)...)

	// The all-A and all-G words among neighbours in their buckets.
	var ends []uint64
	for i := range uint64(300) {
		ends = append(ends, i%7, ^uint64(0)-i%5, r.Uint64())
	}

	crafted := colliding(r, cmpSortMax+50)
	tl := &tallier{min: 1}
	if _, ok := tl.count(append([]uint64(nil), crafted...)); ok {
		t.Fatal("the crafted bucket stayed within the probe budget")
	}

	cases := []struct {
		name   string
		k      int
		reads  []readsim.Read
		bucket int // the longest top-digit bucket must exceed this
	}{
		{"homopolymer in the table", 31, polyReads(dna.A, 100, 50), cmpSortMax},
		{"homopolymer past the cap", 32, polyReads(dna.G, 100, 200), tallyMax},
		{"long bucket", 32, kmerReads(long, 32), tallyMax},
		{"long bucket with a homopolymer", 32, kmerReads(longPoly, 32), tallyMax},
		{"all-A and all-G at k=32", 32, append(kmerReads(ends, 32), polyReads(dna.A, 40, 3)...), 0},
		{"k=2", 2, randomReads(r, 150, 40), 0},
		{"k=3", 3, randomReads(r, 150, 40), 0},
		{"k=5", 5, randomReads(r, 150, 400), 0},
		{"probe budget", 32, kmerReads(crafted, 32), len(crafted) - 1},
	}
	for _, c := range cases {
		var words []uint64
		for _, rd := range c.reads {
			extractInto(&words, rd.Seq, c.k)
		}
		if got := topBucketLen(words, c.k); got <= c.bucket {
			t.Fatalf("%s: longest bucket %d words, want over %d", c.name, got, c.bucket)
		}
		for _, minCount := range []uint32{0, 1, 3, 1 << 31} {
			for _, workers := range []int{1, 3} {
				cfg := Config{K: c.k, Workers: workers, MinCount: minCount}
				a, err := Count(c.reads, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := CountNaive(c.reads, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s %+v: Count differs from CountNaive (distinct %d vs %d, pruned %d/%d vs %d/%d)",
						c.name, cfg, len(a.Kmers), len(b.Kmers), a.PrunedKinds, a.PrunedMass, b.PrunedKinds, b.PrunedMass)
				}
			}
		}
	}
}
