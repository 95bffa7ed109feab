package cpumodel

import (
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

var sharedTrace *trace.Trace

func getTrace(t testing.TB) *trace.Trace {
	t.Helper()
	if sharedTrace != nil {
		return sharedTrace
	}
	g, err := genome.Generate(genome.Config{Length: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 10, Seed: 7})
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
	if _, err := compact.Run(pg, compact.Options{Observer: b, Workers: 4, Threshold: pg.Len() / 100}); err != nil {
		t.Fatal(err)
	}
	sharedTrace = b.Trace()
	return sharedTrace
}

func TestSimulateCompletes(t *testing.T) {
	res, err := Simulate(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.BytesRead == 0 || res.BytesWrite == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestDRAMStallDominates(t *testing.T) {
	// Fig. 6's headline: the baseline is memory-latency-bound. DRAM wait
	// must be the largest bucket, with sync-futex second.
	res, err := Simulate(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	if b.MemDRAM <= b.Base || b.MemDRAM <= b.SyncFutex || b.MemDRAM <= b.MemL3 {
		t.Fatalf("DRAM not dominant: %+v", b)
	}
	_, _, _, dramF, futex, _ := b.Fractions()
	if dramF < 0.35 {
		t.Fatalf("dram fraction %.2f too low (paper: 54%%)", dramF)
	}
	if futex <= 0 {
		t.Fatal("no futex stall recorded despite barriers")
	}
}

func TestPipelinedFasterThanSequential(t *testing.T) {
	// CPU-PaK vs CPU baseline (Fig. 12: 2.6x).
	seq, err := Simulate(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flow = compact.FlowPipelined
	pip, err := Simulate(getTrace(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(seq.Cycles) / float64(pip.Cycles)
	if speedup < 1.5 || speedup > 5 {
		t.Fatalf("CPU-PaK speedup %.2fx outside plausible range (paper: 2.6x)", speedup)
	}
	if pip.BytesRead >= seq.BytesRead || pip.BytesWrite >= seq.BytesWrite {
		t.Fatal("pipelined flow must move fewer bytes")
	}
}

func TestMoreThreadsFaster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 8
	slow, err := Simulate(getTrace(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 64
	fast, err := Simulate(getTrace(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("64 threads (%d) not faster than 8 (%d)", fast.Cycles, slow.Cycles)
	}
}

func TestLowBandwidthUtilization(t *testing.T) {
	// §3.3: the CPU baseline leaves bandwidth on the table (paper: 2.5%).
	res, err := Simulate(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > 0.25 {
		t.Fatalf("baseline utilization %.2f unrealistically high", res.Utilization)
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Simulate(getTrace(t), DefaultConfig())
	b, _ := Simulate(getTrace(t), DefaultConfig())
	if a.Cycles != b.Cycles || a.Breakdown != b.Breakdown {
		t.Fatal("nondeterministic CPU model")
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	res, err := Simulate(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, branch, l3, dramF, futex, other := res.Breakdown.Fractions()
	sum := base + branch + l3 + dramF + futex + other
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
}
