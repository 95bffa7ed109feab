// Benchmarks regenerating each table and figure of the paper's evaluation
// on the quick workload (one benchmark per artifact; README "Commands"
// lists the experiment ids and cmd/experiments runs them at full scale),
// plus the 8-node scale-out pipeline and the multi-tenant fleet. The
// end-to-end numbers perf changes are judged on come from benchmark/.
package nmppak_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"nmppak/internal/cpumodel"
	"nmppak/internal/experiments"
	"nmppak/internal/gpumodel"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/tenancy"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

var (
	benchOnce  sync.Once
	benchCtx   *experiments.Context
	benchTrace *trace.Trace
)

// benchSetup builds the shared quick-workload context and trace once;
// every benchmark excludes the preparation cost with ResetTimer.
func benchSetup(b *testing.B) (*experiments.Context, *trace.Trace) {
	benchOnce.Do(func() {
		c, err := experiments.NewContext(experiments.QuickWorkload())
		if err != nil {
			panic(err)
		}
		t, err := c.Trace()
		if err != nil {
			panic(err)
		}
		benchCtx, benchTrace = c, t
	})
	b.ReportAllocs()
	b.ResetTimer()
	return benchCtx, benchTrace
}

// benchNMP times nmp.Simulate of the quick trace under cfg and returns
// the last result.
func benchNMP(b *testing.B, cfg nmp.Config) *nmp.Result {
	_, t := benchSetup(b)
	var res *nmp.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = nmp.Simulate(t, cfg); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFig5Breakdown measures the end-to-end software pipeline whose
// stage split is Fig. 5.
func BenchmarkFig5Breakdown(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6StallModel measures the CPU stall-attribution model run.
func BenchmarkFig6StallModel(b *testing.B) {
	_, t := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := cpumodel.Simulate(t, cpumodel.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SizeDistribution measures the instrumented-compaction size
// histogram extraction (Figs. 7 and 8 share the trace).
func BenchmarkFig7SizeDistribution(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8OversizeProportion measures the per-iteration threshold
// scan of Fig. 8.
func BenchmarkFig8OversizeProportion(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1BatchSweep measures one batched assembly (the Table 1
// sweep's 10%-batch point).
func BenchmarkTable1BatchSweep(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Assemble(10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12NMP measures the NMP-PaK hardware simulation (the headline
// Fig. 12 bar).
func BenchmarkFig12NMP(b *testing.B) { benchNMP(b, nmp.DefaultConfig()) }

// BenchmarkFig12GPU measures the GPU baseline model (Fig. 12/§6.6).
func BenchmarkFig12GPU(b *testing.B) {
	_, t := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := gpumodel.Simulate(t, gpumodel.A100_40GB()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Utilization exercises the utilization accounting path
// (Fig. 13 derives from the same runs as Fig. 12).
func BenchmarkFig13Utilization(b *testing.B) {
	if res := benchNMP(b, nmp.DefaultConfig()); res.Utilization <= 0 {
		b.Fatal("no utilization")
	}
}

// BenchmarkFig14Traffic measures the logical flow-traffic accounting of
// Fig. 14 over the trace.
func BenchmarkFig14Traffic(b *testing.B) {
	c, t := benchSetup(b)
	runs := &experiments.SystemRuns{}
	var err error
	if runs.CPUBaseline, err = cpumodel.Simulate(t, cpumodel.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(c, runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15PESweep measures one point of the PE/channel sensitivity
// sweep (16 PEs).
func BenchmarkFig15PESweep(b *testing.B) {
	cfg := nmp.DefaultConfig()
	cfg.PEsPerChannel = 16
	benchNMP(b, cfg)
}

// BenchmarkTable3AreaPower measures the area/power model (Table 3).
func BenchmarkTable3AreaPower(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommSplit measures the §6.3 communication-split simulation.
func BenchmarkCommSplit(b *testing.B) {
	cfg := nmp.DefaultConfig()
	cfg.PEsPerChannel = 16
	if res := benchNMP(b, cfg); res.TNInterDIMM == 0 {
		b.Fatal("no routing")
	}
}

// BenchmarkFootprint measures the §3.5/§4.4 footprint accounting.
func BenchmarkFootprint(b *testing.B) {
	c, _ := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Footprint(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStaticMapping measures the static-DIMM-mapping ablation
// configuration (the per-iteration remap's counterfactual).
func BenchmarkAblationStaticMapping(b *testing.B) {
	cfg := nmp.DefaultConfig()
	cfg.StaticMapping = true
	benchNMP(b, cfg)
}

// BenchmarkAblationNoHybrid measures NMP-PaK with CPU offload disabled.
func BenchmarkAblationNoHybrid(b *testing.B) {
	cfg := nmp.DefaultConfig()
	cfg.HybridThresholdBytes = 0
	benchNMP(b, cfg)
}

// BenchmarkKmerCount measures one optimized counting pass (the §4.5
// software path in isolation) over the quick workload's reads, and over
// the input of the assemble-100x benchmark workload: the quick workload at
// 100 kb and 100x coverage.
func BenchmarkKmerCount(b *testing.B) {
	c, _ := benchSetup(b)
	b.StopTimer()
	w := c.W
	w.GenomeLen, w.Coverage = 100_000, 100
	deep, err := experiments.NewContext(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		ctx  *experiments.Context
	}{
		{"quick", c},
		{"assemble-100x", deep},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := kmer.Config{K: w.K, Workers: w.Workers, MinCount: w.MinCount}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kmer.Count(bc.ctx.Reads, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountSharded measures the distributed counting prelude on 64
// nodes: hash ownership over the quick workload's reads, and the skewed
// scale-out workload's rebalancing minimizer ownership over the same
// genome with 45% of it in 150-base repeats.
func BenchmarkCountSharded(b *testing.B) {
	c, _ := benchSetup(b)
	b.StopTimer()
	w := c.W
	w.RepeatFraction, w.RepeatUnit = 0.45, 150
	skewed, err := experiments.NewContext(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		p    scaleout.Partitioner
		ctx  *experiments.Context
	}{
		{"hash", scaleout.HashPartitioner{}, c},
		{"rebalance", scaleout.NewRebalancePartitioner(12, 1), skewed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := scaleout.DefaultConfig(64)
			cfg.K, cfg.MinCount, cfg.Workers = w.K, w.MinCount, w.Workers
			cfg.Partitioner = bc.p
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scaleout.CountSharded(bc.ctx.Reads, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchScaleOut8x measures the full 8-node distributed pipeline (sharded
// counting, shard-graph construction, and the compaction replay) under
// the given replay discipline and interconnect topology, reporting the
// communication fraction and total simulated cycles of the modeled
// machine alongside the wall-clock cost of simulating it.
func benchScaleOut8x(b *testing.B, overlap bool, tc topo.Config) {
	c, t := benchSetup(b)
	cfg := scaleout.DefaultConfig(8)
	cfg.K = c.W.K
	cfg.MinCount = c.W.MinCount
	cfg.Workers = c.W.Workers
	cfg.Overlap = overlap
	cfg.Topo = tc
	var last *scaleout.Result
	for i := 0; i < b.N; i++ {
		res, err := scaleout.Simulate(c.Reads, t, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.CommFraction, "comm_frac")
	b.ReportMetric(float64(last.TotalCycles), "model_cycles")

	// Cross-check the reported comm_frac against the telemetry layer's
	// independent accounting: re-run once instrumented (off the clock)
	// and require the span-derived communication fraction to agree with
	// the runtime's own to float precision. A drift here means the
	// instrumentation no longer covers every communication cycle and the
	// published metric can't be trusted.
	b.StopTimer()
	icfg := cfg
	icfg.Telemetry = telemetry.New()
	ires, err := scaleout.Simulate(c.Reads, t, icfg)
	if err != nil {
		b.Fatal(err)
	}
	u := telemetry.Analyze(icfg.Telemetry)
	if d := math.Abs(u.CommFraction - ires.CommFraction); d > 1e-9 {
		b.Fatalf("telemetry comm fraction %.12f does not reconcile with runtime %.12f (|d|=%g)",
			u.CommFraction, ires.CommFraction, d)
	}
	if ires.TotalCycles != last.TotalCycles {
		b.Fatalf("instrumented run changed the model: %d cycles vs. %d uninstrumented",
			ires.TotalCycles, last.TotalCycles)
	}
	b.StartTimer()
}

// BenchmarkScaleOut8xBSP measures the 8-node distributed pipeline with
// BSP supersteps (compute, exchange, barrier every iteration).
func BenchmarkScaleOut8xBSP(b *testing.B) { benchScaleOut8x(b, false, topo.Default()) }

// BenchmarkScaleOut8xOverlap measures the same machine under the
// overlapped halo-exchange runtime.
func BenchmarkScaleOut8xOverlap(b *testing.B) { benchScaleOut8x(b, true, topo.Default()) }

// BenchmarkScaleOut8xTorus measures the BSP machine on a routed 4x2
// torus instead of the idealized full mesh (comm_frac shows the cost of
// dimension-order routing and shared channels).
func BenchmarkScaleOut8xTorus(b *testing.B) { benchScaleOut8x(b, false, topo.Torus(0, 0)) }

// BenchmarkScaleOut8xDragonfly measures the BSP machine on a dragonfly
// (all-to-all groups, per-group-pair global channels).
func BenchmarkScaleOut8xDragonfly(b *testing.B) {
	benchScaleOut8x(b, false, topo.DragonflyGroups())
}

// BenchmarkTenancyFleet measures one multi-tenant fleet simulation: six
// mixed-width jobs time-sharing an 8-node fleet under fair-share
// checkpoint preemption. The per-demand iteration-0 seed blobs are built
// once off the clock, exactly how the experiments load sweep memoizes
// identical-shape jobs, so the timed body is the fleet scheduler plus
// the sliced runs themselves.
func BenchmarkTenancyFleet(b *testing.B) {
	c, t := benchSetup(b)
	mkcfg := func(n int) scaleout.Config {
		cfg := scaleout.DefaultConfig(n)
		cfg.K = c.W.K
		cfg.MinCount = c.W.MinCount
		cfg.Workers = c.W.Workers
		return cfg
	}
	seeds := map[int][]byte{}
	for _, n := range []int{2, 6} {
		blob, err := scaleout.Checkpoint(c.Reads, t, mkcfg(n), 0)
		if err != nil {
			b.Fatal(err)
		}
		seeds[n] = blob
	}
	demands := []int{2, 6, 2, 2, 6, 2}
	jobs := make([]tenancy.Job, len(demands))
	for i, d := range demands {
		jobs[i] = tenancy.Job{
			Name:    fmt.Sprintf("j%d-n%d", i, d),
			Arrival: sim.Cycle(i * 50_000),
			Trace:   t,
			Config:  mkcfg(d),
			Seed:    seeds[d],
		}
	}
	f := tenancy.Fleet{Nodes: 8, Policy: tenancy.FairShare{}, Quantum: 1 << 18}
	b.ResetTimer()
	var last *tenancy.Schedule
	for i := 0; i < b.N; i++ {
		sched, err := f.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		last = sched
	}
	b.ReportMetric(float64(last.Preemptions), "preemptions")
	b.ReportMetric(last.Utilization, "fleet_util")
	b.ReportMetric(float64(last.Makespan), "makespan_cycles")
}
