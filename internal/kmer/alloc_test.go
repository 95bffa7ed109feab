//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled tally
// and sort scratch would be reallocated and counted.

package kmer

import (
	"runtime"
	"testing"
)

// TestCountAllocBytes pins the bytes one warm counting pass allocates: the
// k-mer stream lives in one exact-size vector of 8·TotalExtracted bytes,
// and the digit tables and result add about a third beside it. Per-worker
// shard vectors, a merged copy or a full-length ping-pong buffer would each
// add another 8·TotalExtracted, and a read-terminal (k-1)-mer vector per
// read end with its sorted table about a tenth.
func TestCountAllocBytes(t *testing.T) {
	reads := simReads(t, 20000, 10, 0.005, 12)
	cfg := Config{K: 31, Workers: 1, MinCount: 2}
	res, err := Count(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Count(reads, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	stream := 8 * float64(res.TotalExtracted)
	if perRun > 1.4*stream {
		t.Errorf("Count allocated %.1f MB per pass, %.2f× the %.1f MB k-mer stream; want <= 1.4×",
			perRun/1e6, perRun/stream, stream/1e6)
	}
	t.Logf("Count allocated %.2f× the k-mer stream (%d words, %d kept)", perRun/stream, res.TotalExtracted, len(res.Kmers))
}

// TestCountAllocs pins the allocation count of one optimized counting
// pass: every buffer is pre-sized by the counting pass, so allocs/op must
// stay a small constant regardless of the k-mer volume.
func TestCountAllocs(t *testing.T) {
	reads := simReads(t, 20000, 10, 0.005, 12)
	cfg := Config{K: 31, Workers: 1, MinCount: 2}
	if _, err := Count(reads, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Count(reads, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// 2,000 reads produce 140k raw k-mer instances; the pass itself needs
	// only the bucket tables, the one k-mer vector and the result vectors,
	// plus closures and pooled tally scratch: 16 allocations. 20 leaves a
	// little headroom without letting per-element or per-bucket growth, or
	// a pair of vectors beside the k-mer stream, back in.
	if allocs > 20 {
		t.Errorf("Count allocated %v times per pass, want <= 20", allocs)
	}
}
