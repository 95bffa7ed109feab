package nmp

import (
	"math"
	"math/rand"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/dram"
	"nmppak/internal/genome"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

func recordTrace(t testing.TB, length int, seed int64) *trace.Trace {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: length, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 10, Seed: seed})
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
	return b.Trace()
}

var sharedTrace *trace.Trace

func getTrace(t testing.TB) *trace.Trace {
	if sharedTrace == nil {
		sharedTrace = recordTrace(t, 20000, 7)
	}
	return sharedTrace
}

func TestSimulateCompletes(t *testing.T) {
	tr := getTrace(t)
	res, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.Iterations != len(tr.Iterations) {
		t.Fatalf("iterations %d want %d", res.Iterations, len(tr.Iterations))
	}
	if res.BytesRead == 0 || res.BytesWrite == 0 {
		t.Fatal("no memory traffic")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v out of (0,1]", res.Utilization)
	}
}

func TestDeterministic(t *testing.T) {
	tr := getTrace(t)
	a, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TNInterDIMM != b.TNInterDIMM {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.TNInterDIMM, b.Cycles, b.TNInterDIMM)
	}
}

// TestCommunicationSplit reproduces §6.3's expectation: with 8 DIMMs and
// ascending-key range partitioning, ~87.5% of TransferNodes cross DIMMs;
// within a DIMM, most target a different PE.
func TestCommunicationSplit(t *testing.T) {
	tr := getTrace(t)
	cfg := DefaultConfig()
	cfg.PEsPerChannel = 16
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(res.TNSamePE + res.TNIntraDIMM + res.TNInterDIMM)
	if total == 0 {
		t.Fatal("no transfers routed")
	}
	inter := float64(res.TNInterDIMM) / total
	if inter < 0.75 || inter > 0.95 {
		t.Fatalf("inter-DIMM fraction %.2f, expected ~0.875", inter)
	}
	intra := float64(res.TNSamePE+res.TNIntraDIMM) / total
	if intra < 0.05 || intra > 0.25 {
		t.Fatalf("intra-DIMM fraction %.2f, expected ~0.125", intra)
	}
}

// TestMorePEsFaster: the Fig. 15 premise — throughput scales with PEs per
// channel until saturation.
func TestMorePEsFaster(t *testing.T) {
	tr := getTrace(t)
	var prev *Result
	for _, pes := range []int{1, 4, 16} {
		cfg := DefaultConfig()
		cfg.PEsPerChannel = pes
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && res.Cycles >= prev.Cycles {
			t.Fatalf("%d PEs (%d cycles) not faster than fewer (%d)", pes, res.Cycles, prev.Cycles)
		}
		prev = res
	}
}

// TestIdealPECloseToReal: the paper's finding that PEs are not the
// bottleneck — ideal (single-cycle) PEs barely help.
func TestIdealPECloseToReal(t *testing.T) {
	tr := getTrace(t)
	real, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IdealPE = true
	ideal, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's finding: infinitely fast PEs do not improve performance
	// at the default PE count (the channel is the bottleneck). Our model
	// reproduces that within contention noise: the ratio must stay near
	// 1 in both directions (ideal compute removes the natural pacing of
	// requests, so it can even lose slightly to burst contention).
	ratio := float64(real.Cycles) / float64(ideal.Cycles)
	if ratio > 1.35 {
		t.Fatalf("ideal PE speedup %.2fx: PEs are a bottleneck, contradicting the design point", ratio)
	}
	if ratio < 0.6 {
		t.Fatalf("ideal PE %.2fx slower than real: model artifact too large", 1/ratio)
	}
}

// TestIdealForwardingReducesReads: Fig. 14's ideal-fwd bar.
func TestIdealForwardingReducesReads(t *testing.T) {
	tr := getTrace(t)
	real, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ForwardingHitRate = 1
	fwd, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.BytesRead >= real.BytesRead {
		t.Fatalf("forwarding did not cut reads: %d vs %d", fwd.BytesRead, real.BytesRead)
	}
	if fwd.BytesWrite != real.BytesWrite {
		t.Fatalf("forwarding changed writes: %d vs %d", fwd.BytesWrite, real.BytesWrite)
	}
	if fwd.Cycles > real.Cycles {
		t.Fatal("forwarding slowed the system down")
	}
}

// TestHybridOffload: nodes above the threshold go to the CPU and their
// processing overlaps NMP work (§4.3).
func TestHybridOffload(t *testing.T) {
	tr := getTrace(t)
	cfg := DefaultConfig()
	cfg.HybridThresholdBytes = 64 // aggressive, to get a population at this scale
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesCPU == 0 {
		t.Fatal("no nodes offloaded at a 64 B threshold")
	}
	if res.NodesCPU+res.NodesNMP == 0 || res.NodesNMP == 0 {
		t.Fatal("all nodes offloaded")
	}
	off, err := Simulate(tr, func() Config { c := DefaultConfig(); c.HybridThresholdBytes = 0; return c }())
	if err != nil {
		t.Fatal(err)
	}
	if off.NodesCPU != 0 {
		t.Fatal("offload disabled but CPU nodes present")
	}
}

func TestScratchpadTracked(t *testing.T) {
	tr := getTrace(t)
	res, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ScratchPeakBytes <= 0 {
		t.Fatal("scratch occupancy never tracked")
	}
}

func TestValidation(t *testing.T) {
	tr := getTrace(t)
	bad := DefaultConfig()
	bad.PEsPerChannel = 0
	if _, err := Simulate(tr, bad); err == nil {
		t.Fatal("expected validation error")
	}
	// The edges of each accepted range still run: an unlimited bridge (as
	// internal/topo accepts unlimited links), the bandwidth floor, both
	// ends of the forwarding hit rate, no offload, unit queue depths and the
	// deepest P3 queue.
	for _, f := range []func(*Config){
		func(c *Config) { c.BridgeBytesPerCy = math.Inf(1) },
		func(c *Config) { c.BridgeBytesPerCy = minBridgeBytesPerCy },
		func(c *Config) { c.ForwardingHitRate = 1 },
		func(c *Config) { c.HybridThresholdBytes = 0 },
		func(c *Config) { c.PELoadQueueDepth, c.P3QueueDepth = 1, 1 },
		func(c *Config) { c.P3QueueDepth = maxP3QueueDepth },
	} {
		cfg := DefaultConfig()
		f(&cfg)
		if _, err := Simulate(tr, cfg); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestAllocatorPacksRows(t *testing.T) {
	var a allocator
	seen := map[[3]int32]int{}
	for i := 0; i < 1000; i++ {
		var loc nodeLoc
		a.alloc(4, &loc) // 256 B nodes
		if loc.blk+4 > 128 {
			t.Fatalf("node straddles row: %+v", loc)
		}
		seen[[3]int32{loc.rank, loc.bank, loc.row}] += 4
	}
	for k, used := range seen {
		if used > 128 {
			t.Fatalf("row %v overfilled: %d blocks", k, used)
		}
	}
	// Oversized allocation spans rows.
	var big nodeLoc
	a.alloc(300, &big)
	if big.blocks != 300 || big.blk != 0 {
		t.Fatalf("oversized alloc %+v", big)
	}
}

// refAlloc is the allocator's placement by division: bank b = the node's
// index modulo ranks*banks, at rank b/banks and bank b%banks.
type refAlloc struct {
	ranks, banks, rowBlocks, next int
	fill, rowAt                   []int
}

func (a *refAlloc) alloc(blocks int) [5]int {
	n := a.ranks * a.banks
	b := a.next
	a.next = (a.next + 1) % n
	if blocks > a.rowBlocks {
		rows := (blocks + a.rowBlocks - 1) / a.rowBlocks
		loc := [5]int{b / a.banks, b % a.banks, a.rowAt[b], 0, blocks}
		a.rowAt[b] += rows
		a.fill[b] = 0
		return loc
	}
	if a.fill[b]+blocks > a.rowBlocks {
		a.rowAt[b]++
		a.fill[b] = 0
	}
	loc := [5]int{b / a.banks, b % a.banks, a.rowAt[b], a.fill[b], blocks}
	a.fill[b] += blocks
	return loc
}

// The cursor allocator places every node where dividing by the bank count
// does, over node sizes up to one and a half rows and oversized nodes,
// across a reset to the zero allocator, as iterSim.reset clears it.
func TestAllocatorMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var got allocator
	for round := range 2 {
		got = allocator{}
		want := refAlloc{ranks: dram.Ranks, banks: dram.BanksPerRank, rowBlocks: rowBlocks,
			fill: make([]int, dram.Ranks*dram.BanksPerRank), rowAt: make([]int, dram.Ranks*dram.BanksPerRank)}
		for i := range 500 {
			blocks := 1 + rng.Intn(rowBlocks+rowBlocks/2)
			if i%37 == 0 {
				blocks = 3*rowBlocks + rng.Intn(rowBlocks) // oversized
			}
			var loc nodeLoc
			got.alloc(int32(blocks), &loc)
			g := [5]int{int(loc.rank), int(loc.bank), int(loc.row), int(loc.blk), int(loc.blocks)}
			if w := want.alloc(blocks); g != w {
				t.Fatalf("round %d, node %d (%d blocks): placed at %v, division places at %v", round, i, blocks, g, w)
			}
		}
	}
}
