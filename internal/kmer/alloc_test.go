//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled sort
// scratch would be reallocated and counted.

package kmer

import (
	"runtime"
	"testing"
)

// TestCountAllocBytes pins the bytes one warm counting pass allocates: the
// k-mer stream lives in one exact-size vector of 8·TotalExtracted bytes,
// and the terminal vectors, digit tables and result add little beside it.
// Per-worker shard vectors, a merged copy or a full-length ping-pong buffer
// would each add another 8·TotalExtracted.
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
	if perRun > 1.5*stream {
		t.Errorf("Count allocated %.1f MB per pass, %.2f× the %.1f MB k-mer stream; want <= 1.5×",
			perRun/1e6, perRun/stream, stream/1e6)
	}
	t.Logf("Count allocated %.2f× the k-mer stream (%d words, %d kept)", perRun/stream, res.TotalExtracted, len(res.Kmers))
}
