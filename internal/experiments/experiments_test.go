package experiments

import (
	"strings"
	"testing"

	"nmppak/internal/kmer"
)

// quickCtx builds a shared small-workload context for driver tests.
var quickCtx *Context

func ctx(t testing.TB) *Context {
	t.Helper()
	if quickCtx == nil {
		c, err := NewContext(QuickWorkload())
		if err != nil {
			t.Fatal(err)
		}
		quickCtx = c
	}
	return quickCtx
}

var quickRuns *SystemRuns

func runs(t testing.TB) *SystemRuns {
	t.Helper()
	if quickRuns == nil {
		r, err := RunSystems(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		quickRuns = r
	}
	return quickRuns
}

func TestFig5CompactionDominates(t *testing.T) {
	r, err := Fig5(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	// The headline of Fig. 5: Iterative Compaction is the dominant stage
	// and the graph walk is negligible.
	if r.Measured["frac_compaction"] < 0.25 {
		t.Fatalf("compaction fraction %.2f too low: %s", r.Measured["frac_compaction"], r.Text)
	}
	if r.Measured["frac_walk"] > 0.15 {
		t.Fatalf("walk fraction %.2f too high", r.Measured["frac_walk"])
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["frac_dram"] < 0.35 {
		t.Fatalf("dram stall %.2f too low", r.Measured["frac_dram"])
	}
	if r.Measured["frac_futex"] <= 0 {
		t.Fatal("no futex stall")
	}
}

func TestFig7Tail(t *testing.T) {
	r, err := Fig7(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Long tail: most nodes stay small; oversized nodes are a tiny
	// minority even at completion.
	if f := r.Measured["final_frac_gt_1024B"]; f > 0.25 {
		t.Fatalf(">1KB fraction %.3f too high", f)
	}
	if f := r.Measured["final_frac_gt_8192B"]; f > 0.02 {
		t.Fatalf(">8KB fraction %.4f too high", f)
	}
}

func TestFig8Bounded(t *testing.T) {
	r, err := Fig8(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["max_frac_gt_1KB"] > 0.3 || r.Measured["max_frac_gt_8KB"] > 0.05 {
		t.Fatalf("oversized proportions too high: %+v", r.Measured)
	}
}

func TestTable1Trend(t *testing.T) {
	r, err := Table1(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	small := r.Measured["n50_batch_0.5%"]
	large := r.Measured["n50_batch_10%"]
	if large <= small {
		t.Fatalf("N50 must improve with batch size: 0.5%%=%v 10%%=%v", small, large)
	}
}

func TestFig12Ordering(t *testing.T) {
	r, err := Fig12(ctx(t), runs(t))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Measured
	if !(m["wo_swopt"] < 1 && 1 < m["cpu_pak"] && m["cpu_pak"] < m["nmp_pak"]) {
		t.Fatalf("Fig12 ordering broken: %+v", m)
	}
	if m["nmp_pak"] < 5 {
		t.Fatalf("NMP speedup %.1f too small (paper 16x)", m["nmp_pak"])
	}
	// Ideal PE must be near real NMP-PaK (PEs not the bottleneck): no
	// large gain, and no more than contention noise of a loss.
	if r := m["ideal_pe"] / m["nmp_pak"]; r > 1.35 || r < 0.6 {
		t.Fatalf("ideal PE ratio %.2f out of range: %+v", r, m)
	}
	if m["ideal_fwd"] < m["nmp_pak"]*0.95 {
		t.Fatalf("ideal forwarding clearly slower than NMP-PaK: %+v", m)
	}
}

func TestFig13Ordering(t *testing.T) {
	r, err := Fig13(ctx(t), runs(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["nmp_pak"] <= r.Measured["cpu_baseline"]*1.5 {
		t.Fatalf("NMP utilization must clearly beat the CPU baseline: %+v", r.Measured)
	}
}

func TestFig14Ratios(t *testing.T) {
	r, err := Fig14(ctx(t), runs(t))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Measured
	if m["nmp_reads"] >= 0.8 || m["nmp_reads"] <= 0.2 {
		t.Fatalf("NMP read ratio %.2f outside plausible range (paper 0.5)", m["nmp_reads"])
	}
	if m["nmp_writes"] >= m["cpu_baseline_writes"] {
		t.Fatal("NMP writes must be below baseline writes")
	}
	if m["ideal_fwd_reads"] >= m["nmp_reads"] {
		t.Fatal("ideal forwarding must reduce reads")
	}
}

func TestFig15Saturates(t *testing.T) {
	r, err := Fig15(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Measured
	if !(m["perf_1pe"] < m["perf_4pe"] && m["perf_4pe"] < m["perf_16pe"]) {
		t.Fatalf("performance must grow with PEs: %+v", m)
	}
	// Saturation: 64 PEs gain little over 32.
	if m["perf_64pe"] > m["perf_32pe"]*1.25 {
		t.Fatalf("no saturation at 32 PEs: %+v", m)
	}
}

func TestCommSplit(t *testing.T) {
	r, err := Comm(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["inter_dimm"] < 0.7 {
		t.Fatalf("inter-DIMM %.2f, expected ~0.875", r.Measured["inter_dimm"])
	}
}

func TestSuperArithmetic(t *testing.T) {
	r, err := Super(ctx(t), runs(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["throughput_gain"] <= 0 {
		t.Fatalf("degenerate throughput gain: %+v", r.Measured)
	}
}

func TestTable3(t *testing.T) {
	r, err := Table3(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["pe_area_mm2"] < 0.1 || r.Measured["pe_area_mm2"] > 0.12 {
		t.Fatalf("PE area %v", r.Measured["pe_area_mm2"])
	}
}

func TestHybridReport(t *testing.T) {
	r, err := HybridReport(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["cpu_node_frac_1KB"] > 0.2 {
		t.Fatalf("too many nodes above 1KB: %+v", r.Measured)
	}
}

func TestFootprintAndGPUCap(t *testing.T) {
	fp, err := Footprint(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if fp.Measured["overall_ratio"] < 4 {
		t.Fatalf("overall footprint reduction %.1f too small", fp.Measured["overall_ratio"])
	}
	gc, err := GPUCap(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if gc.Measured["max_batch_80GB"] >= 0.5 {
		t.Fatalf("GPU capacity analysis degenerate: %+v", gc.Measured)
	}
}

func TestSWOpt(t *testing.T) {
	r, err := SWOpt(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured["kmer_count_speedup"] <= 1 {
		t.Logf("note: optimized counting not faster on this machine (%.2fx)", r.Measured["kmer_count_speedup"])
	}
}

// TestSWOptRejectsMismatch feeds the swopt agreement check results that
// have the same number of k-mers but differ elsewhere.
func TestSWOptRejectsMismatch(t *testing.T) {
	reads := ctx(t).Reads[:200]
	cfg := kmer.Config{K: 31, Workers: 2}
	opt, err := kmer.Count(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := kmer.CountNaive(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCounts(opt, naive); err != nil {
		t.Fatalf("agreeing results rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *kmer.Result){
		"k-mer":       func(r *kmer.Result) { r.Kmers[len(r.Kmers)/2].Km ^= 1 },
		"count":       func(r *kmer.Result) { r.Kmers[0].Count++ },
		"pruned mass": func(r *kmer.Result) { r.PrunedMass++ },
	} {
		bad, err := kmer.Count(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mutate(bad)
		if sameCounts(bad, naive) == nil {
			t.Errorf("%s mismatch with %d k-mers on both sides not reported", name, len(bad.Kmers))
		}
	}
}

func TestReportString(t *testing.T) {
	r, err := Table3(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "paper") || !strings.Contains(s, "table3") {
		t.Fatalf("report rendering: %q", s)
	}
}
