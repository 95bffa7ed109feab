package kmer

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"nmppak/internal/dna"
	"nmppak/internal/genome"
	"nmppak/internal/readsim"
)

func simReads(t testing.TB, length int, cov float64, errRate float64, seed int64) []readsim.Read {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: cov, ErrorRate: errRate, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// naiveMapCount is the reference implementation: a plain hash map.
func naiveMapCount(reads []readsim.Read, k int) map[dna.Kmer]uint32 {
	m := make(map[dna.Kmer]uint32)
	for _, rd := range reads {
		s := rd.Seq
		for i := 0; i+k <= s.Len(); i++ {
			m[dna.KmerFromSeq(s, i, k)]++
		}
	}
	return m
}

func TestCountMatchesNaiveMap(t *testing.T) {
	reads := simReads(t, 4000, 8, 0.01, 5)
	cfg := Config{K: 31, Workers: 4}
	res, err := Count(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMapCount(reads, 31)
	if len(res.Kmers) != len(want) {
		t.Fatalf("distinct kmers %d want %d", len(res.Kmers), len(want))
	}
	for _, kc := range res.Kmers {
		if want[kc.Km] != kc.Count {
			t.Fatalf("kmer %s count %d want %d", kc.Km.StringK(31), kc.Count, want[kc.Km])
		}
	}
	// Sorted ascending.
	for i := 1; i < len(res.Kmers); i++ {
		if res.Kmers[i-1].Km >= res.Kmers[i].Km {
			t.Fatal("result not sorted strictly ascending")
		}
	}
}

// edgeReads adds the read shapes the bucketed extraction must skip or
// handle at its edges to a small simulated set: an empty read, reads one
// base shorter than k, exactly k and one longer, for every k swept.
func edgeReads(t testing.TB) []readsim.Read {
	reads := simReads(t, 1500, 4, 0.01, 6)
	src := reads[0].Seq
	reads = append(reads, readsim.Read{})
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 15, 16, 17, 18, 30, 31, 32, 33} {
		reads = append(reads, readsim.Read{Seq: src.Slice(0, n)})
	}
	return reads
}

// TestCountMatchesCountNaive compares the whole Result of the bucketed
// counter with the serial reference across k (the top digit is derived
// from 2k, so k < 6 takes every bit), worker counts up to more workers
// than reads, and pruning thresholds.
func TestCountMatchesCountNaive(t *testing.T) {
	check := func(reads []readsim.Read, cfg Config) {
		t.Helper()
		a, err := Count(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CountNaive(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("reads=%d %+v: Count differs from CountNaive (distinct %d vs %d)",
				len(reads), cfg, len(a.Kmers), len(b.Kmers))
		}
	}
	all := edgeReads(t)
	for _, reads := range [][]readsim.Read{all, all[len(all)-5:]} {
		for _, k := range []int{2, 5, 6, 11, 16, 17, 31, 32} {
			for _, workers := range []int{1, 2, 3, 7, 64} {
				for _, minCount := range []uint32{0, 1, 3} {
					check(reads, Config{K: k, Workers: workers, MinCount: minCount})
				}
			}
		}
	}
	// At 200x a top-digit bucket holds hundreds of words, mostly copies of
	// one k-mer and its error variants, so the in-bucket digit runs too.
	deep := simReads(t, 3000, 200, 0.01, 13)
	for _, k := range []int{5, 11, 31} {
		for _, workers := range []int{1, 3} {
			check(deep, Config{K: k, Workers: workers, MinCount: 2})
		}
	}
}

// FuzzCountVsNaive builds reads from the fuzz bytes, two bits per base,
// with the first byte choosing k and each read's length, up to 255 bases,
// so that rolling crosses several packed-word boundaries; bases past the
// end of the input are A. It requires Count to equal CountNaive in full.
func FuzzCountVsNaive(f *testing.F) {
	f.Add([]byte{31, 40, 0x1b, 0xe4, 0x93, 0x6c, 0xff, 0x00, 0x55, 0xaa, 0x12, 0x34}, uint8(2), uint8(0))
	f.Add([]byte{2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(2))
	f.Add([]byte{5, 0, 7, 200, 201, 202, 203}, uint8(64), uint8(1))
	long := []byte{30, 140}
	for i := range 35 {
		long = append(long, byte(i*37+11))
	}
	f.Add(append(long, 100, 0xe4, 0x1b), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, workers, minCount uint8) {
		if len(data) == 0 {
			return
		}
		k := 2 + int(data[0])%(dna.MaxK-1)
		var reads []readsim.Read
		for rest := data[1:]; len(rest) > 0; {
			n := int(rest[0]) // bases in this read
			rest = rest[1:]
			bases := make([]dna.Base, n)
			for i := range bases {
				if len(rest) > 0 {
					bases[i] = dna.Base(rest[0] >> (2 * (i % 4)) & 3)
					if i%4 == 3 {
						rest = rest[1:]
					}
				}
			}
			reads = append(reads, readsim.Read{Seq: dna.FromBases(bases)})
		}
		cfg := Config{K: k, Workers: int(workers % 9), MinCount: uint32(minCount % 4)}
		a, err := Count(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CountNaive(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v over %d reads: Count %+v, CountNaive %+v", cfg, len(reads), a, b)
		}
	})
}

func TestTotalExtracted(t *testing.T) {
	reads := simReads(t, 2000, 4, 0, 7)
	res, err := Count(reads, Config{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(reads) * (100 - 32 + 1))
	if res.TotalExtracted != want {
		t.Fatalf("TotalExtracted = %d want %d", res.TotalExtracted, want)
	}
	var mass int64
	for _, kc := range res.Kmers {
		mass += int64(kc.Count)
	}
	if mass+res.PrunedMass != want {
		t.Fatalf("mass conservation: %d + %d != %d", mass, res.PrunedMass, want)
	}
}

func TestPruningDropsErrorKmers(t *testing.T) {
	reads := simReads(t, 20000, 30, 0.01, 9)
	unpruned, err := Count(reads, Config{K: 32, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Count(reads, Config{K: 32, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.PrunedKinds == 0 {
		t.Fatal("expected some pruning with 1% errors")
	}
	if len(pruned.Kmers) >= len(unpruned.Kmers) {
		t.Fatal("pruning did not reduce distinct kmers")
	}
	// At 30x coverage, genuine k-mers survive: distinct count after pruning
	// should be near the genome's distinct 32-mers (~20000).
	if len(pruned.Kmers) < 15000 || len(pruned.Kmers) > 25000 {
		t.Fatalf("pruned distinct = %d, expected near 20000", len(pruned.Kmers))
	}
}

func TestCountValidation(t *testing.T) {
	if _, err := Count(nil, Config{K: 1}); err == nil {
		t.Fatal("expected error for K=1")
	}
	if _, err := Count(nil, Config{K: 33}); err == nil {
		t.Fatal("expected error for K=33")
	}
	res, err := Count(nil, Config{K: 32})
	if err != nil || len(res.Kmers) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestSortUint64(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 100, 4095, 4096, 100000} {
		v := make([]uint64, n)
		for i := range v {
			v[i] = r.Uint64() % 1000
		}
		want := append([]uint64(nil), v...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortUint64(v)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(v []uint64) bool {
		SortUint64(v)
		return sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCount counts the k-mers of a 100 kb genome at 100x coverage,
// the input of the assemble-100x benchmark workload.
func BenchmarkCount(b *testing.B) {
	reads := simReads(b, 100_000, 100, 0.01, 42)
	cfg := Config{K: 31, MinCount: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(reads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
