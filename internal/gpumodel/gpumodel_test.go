package gpumodel

import (
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

func getTrace(t testing.TB) *trace.Trace {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: 10000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmer.Count(reads, kmer.Config{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(32)
	if _, err := compact.Run(pg, compact.Options{Observer: b}); err != nil {
		t.Fatal(err)
	}
	return b.Trace()
}

func TestSimulateBasics(t *testing.T) {
	tr := getTrace(t)
	res, err := Simulate(tr, A100_40GB())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.BytesMoved == 0 {
		t.Fatalf("degenerate %+v", res)
	}
	if !res.Feasible {
		t.Fatal("tiny trace must fit 40 GB")
	}
	if res.Iterations != len(tr.Iterations) {
		t.Fatal("iteration mismatch")
	}
	if res.LaunchShare <= 0 || res.LaunchShare >= 1 {
		t.Fatalf("launch share %v", res.LaunchShare)
	}
}

func TestInfeasibleWhenTiny(t *testing.T) {
	tr := getTrace(t)
	cfg := A100_40GB()
	cfg.MemoryGB = 1e-6
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("must be infeasible with ~0 memory")
	}
}

func TestMaxBatchFraction(t *testing.T) {
	cfg := A100_40GB() // 40 GB
	// Paper: full human assembly needs ~379 GB -> max batch just above 10%.
	f := MaxBatchFraction(cfg, 379e9)
	if f < 0.09 || f > 0.12 {
		t.Fatalf("max batch fraction %.3f, expected ~0.105", f)
	}
	if MaxBatchFraction(cfg, 1e9) != 1 {
		t.Fatal("small dataset must allow full batch")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Simulate(&trace.Trace{}, Config{}); err == nil {
		t.Fatal("expected validation error")
	}
}
