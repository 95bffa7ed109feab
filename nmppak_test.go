package nmppak_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"nmppak"
	"nmppak/internal/trace"
)

// TestPublicAPIEndToEnd drives the whole public surface: genome, reads,
// assembly, metrics, trace capture and all three hardware models.
func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{Length: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{ReadLen: 100, Coverage: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{K: 32})
	if err != nil {
		t.Fatal(err)
	}
	sum := nmppak.Summarize(out.Contigs, g.Replicons)
	if sum.GenomeFrac < 0.99 {
		t.Fatalf("genome fraction %v", sum.GenomeFrac)
	}
	ref := g.Replicons[0].String()
	for _, c := range out.Contigs {
		if !strings.Contains(ref, c.String()) {
			t.Fatal("contig not a genome substring")
		}
	}

	tr, _, err := nmppak.CaptureTrace(reads, 32, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := nmppak.SimulateNMP(tr, nmppak.DefaultNMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cres, err := nmppak.SimulateCPU(tr, nmppak.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	gres, err := nmppak.SimulateGPU(tr, nmppak.DefaultGPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nres.Seconds <= 0 || cres.Seconds <= 0 || gres.Seconds <= 0 {
		t.Fatal("degenerate model results")
	}
	if nres.Seconds >= cres.Seconds {
		t.Fatalf("NMP (%.4fs) must beat the CPU baseline (%.4fs)", nres.Seconds, cres.Seconds)
	}
}

// TestPublicScaleOutAPI drives the distributed-runtime surface: the
// stepwise engine, both replay disciplines and all three partitioners.
func TestPublicScaleOutAPI(t *testing.T) {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{Length: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{ReadLen: 100, Coverage: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 0, 200)
	if err != nil {
		t.Fatal(err)
	}

	// Stepwise engine == SimulateNMP.
	want, err := nmppak.SimulateNMP(tr, nmppak.DefaultNMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := nmppak.NewNMPEngine(tr, nmppak.DefaultNMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.StepIteration()
	}
	if got := e.Result(); got.Cycles != want.Cycles {
		t.Fatalf("stepwise engine %d cycles, SimulateNMP %d", got.Cycles, want.Cycles)
	}

	// BSP vs overlapped on every partitioner.
	res, err := nmppak.CountKmers(reads, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []nmppak.Partitioner{
		nmppak.HashPartitioner{},
		nmppak.NewMinimizerPartitioner(12),
		nmppak.NewBalancedPartitioner(res, 12, 4),
	} {
		cfg := nmppak.DefaultScaleOutConfig(4)
		cfg.MinCount = 1
		cfg.Partitioner = p
		bsp, err := nmppak.SimulateScaleOut(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Overlap = true
		ov, err := nmppak.SimulateScaleOut(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ov.TotalCycles > bsp.TotalCycles {
			t.Fatalf("%s: overlapped run slower than BSP (%d vs %d cycles)",
				p.Name(), ov.TotalCycles, bsp.TotalCycles)
		}
	}

	// Routed topologies and measurement-driven rebalancing through the
	// public surface: multi-hop contention must cost more than the
	// idealized mesh, and the rebalancer must report its migrations.
	mesh, err := nmppak.SimulateScaleOut(reads, tr, func() nmppak.ScaleOutConfig {
		cfg := nmppak.DefaultScaleOutConfig(4)
		cfg.MinCount = 1
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []nmppak.TopoConfig{nmppak.TorusTopo(2, 2), nmppak.DragonflyTopo()} {
		cfg := nmppak.DefaultScaleOutConfig(4)
		cfg.MinCount = 1
		cfg.Topo = tc
		r, err := nmppak.SimulateScaleOut(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalCycles <= mesh.TotalCycles {
			t.Fatalf("%s: routed run not costlier than the idealized mesh (%d vs %d cycles)",
				r.Topology, r.TotalCycles, mesh.TotalCycles)
		}
	}
	rcfg := nmppak.DefaultScaleOutConfig(4)
	rcfg.MinCount = 1
	rcfg.Partitioner = nmppak.NewRebalancePartitioner(12, 1)
	reb, err := nmppak.SimulateScaleOut(reads, tr, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if reb.Rebalances == 0 || reb.MigratedBytes == 0 {
		t.Fatalf("rebalancer reported no migrations: %+v", reb)
	}

	// Checkpoint/restore through the public surface: pause mid-compaction,
	// inspect the blob, resume, and land bit-identically on the
	// uninterrupted rebalanced run.
	at := len(tr.Iterations) / 2
	blob, err := nmppak.CheckpointScaleOut(reads, tr, rcfg, at)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := nmppak.UnmarshalScaleOutCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != nmppak.ScaleOutCheckpointVersion || ck.ResumeIter != at {
		t.Fatalf("blob reports version %d resume %d, want %d/%d",
			ck.Version, ck.ResumeIter, nmppak.ScaleOutCheckpointVersion, at)
	}
	resumed, err := nmppak.RestoreScaleOut(tr, rcfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, reb) {
		t.Fatal("restored scale-out result differs from the uninterrupted run")
	}
	if _, err := nmppak.RestoreScaleOut(tr, rcfg, blob[:len(blob)/2]); err == nil {
		t.Fatal("RestoreScaleOut accepted a truncated blob")
	}
}

func TestKmerGraphHelpers(t *testing.T) {
	seq, err := nmppak.ParseSeq("ACGTACGTACGTACGTACGTACGTACGTACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := nmppak.CountKmers([]nmppak.Read{{Seq: seq}}, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := nmppak.BuildGraph(res)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("empty graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicTelemetryAPI drives the observability surface: an
// instrumented scale-out run, Chrome-trace export, the derived
// utilization aggregate (which must reproduce the runtime's comm
// fraction exactly), critical-path attribution and the text renderers.
func TestPublicTelemetryAPI(t *testing.T) {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{Length: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{ReadLen: 100, Coverage: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 0, 200)
	if err != nil {
		t.Fatal(err)
	}

	cfg := nmppak.DefaultScaleOutConfig(4)
	cfg.MinCount = 1
	cfg.Topo = nmppak.TorusTopo(2, 2)
	cfg.Overlap = true
	cfg.Telemetry = nmppak.NewTelemetry()
	res, err := nmppak.SimulateScaleOut(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Telemetry.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	u := nmppak.AnalyzeTelemetry(cfg.Telemetry)
	if u.CommFraction != res.CommFraction {
		t.Fatalf("telemetry comm fraction %v != runtime %v", u.CommFraction, res.CommFraction)
	}
	if len(u.Nodes) != cfg.Nodes || len(u.Links) == 0 {
		t.Fatalf("aggregate covers %d nodes / %d links", len(u.Nodes), len(u.Links))
	}
	cp := nmppak.TelemetryCriticalPath(cfg.Telemetry)
	if len(cp) == 0 {
		t.Fatal("no critical path")
	}
	if s := nmppak.FormatUtilization(u); !strings.Contains(s, "per-node breakdown") {
		t.Fatalf("utilization rendering missing node table:\n%s", s)
	}
	if s := nmppak.FormatCriticalPath(cp); !strings.Contains(s, "critical path") {
		t.Fatalf("critical-path rendering missing title:\n%s", s)
	}
}

// TestUntrustedInputsError feeds zero-value and extreme configs and nil
// inputs to every public entry point. Each must return an error: never
// panic, and never return a result that silently skipped work.
func TestUntrustedInputsError(t *testing.T) {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{Length: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{ReadLen: 100, Coverage: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) < 2 {
		t.Fatalf("trace has %d iterations, want several", len(tr.Iterations))
	}
	nmpWith := func(f func(*nmppak.NMPConfig)) nmppak.NMPConfig {
		cfg := nmppak.DefaultNMPConfig()
		f(&cfg)
		return cfg
	}
	cpuWith := func(f func(*nmppak.CPUConfig)) nmppak.CPUConfig {
		cfg := nmppak.DefaultCPUConfig()
		f(&cfg)
		return cfg
	}
	gpuWith := func(f func(*nmppak.GPUConfig)) nmppak.GPUConfig {
		cfg := nmppak.DefaultGPUConfig()
		f(&cfg)
		return cfg
	}
	soWith := func(f func(*nmppak.ScaleOutConfig)) nmppak.ScaleOutConfig {
		cfg := nmppak.DefaultScaleOutConfig(2)
		cfg.MinCount = 1
		f(&cfg)
		return cfg
	}
	simNMP := func(tr *nmppak.Trace, cfg nmppak.NMPConfig) func() error {
		return func() error { _, err := nmppak.SimulateNMP(tr, cfg); return err }
	}
	simCPU := func(tr *nmppak.Trace, cfg nmppak.CPUConfig) func() error {
		return func() error { _, err := nmppak.SimulateCPU(tr, cfg); return err }
	}
	simGPU := func(tr *nmppak.Trace, cfg nmppak.GPUConfig) func() error {
		return func() error { _, err := nmppak.SimulateGPU(tr, cfg); return err }
	}
	// The static DIMM mapping is a single-node ablation; a scale-out
	// entry point must reject it by name. namesStatic passes on call's
	// error only when it names the field, so a row fails on any other.
	static := soWith(func(c *nmppak.ScaleOutConfig) { c.NMP.StaticMapping = true })
	namesStatic := func(call func() error) func() error {
		return func() error {
			if err := call(); err != nil && strings.Contains(err.Error(), "NMP.StaticMapping") {
				return err
			}
			return nil
		}
	}
	nan := math.NaN()
	// Counts this large panic at once in a make; smaller ones that do
	// allocate could exhaust the host before failing.
	const huge = 1 << 60
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SimulateNMP/nil trace", simNMP(nil, nmppak.DefaultNMPConfig())},
		{"SimulateNMP/zero config", simNMP(tr, nmppak.NMPConfig{})},
		{"SimulateNMP/negative PEs per channel", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.PEsPerChannel = -1 }))},
		{"SimulateNMP/huge PEs per channel", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.PEsPerChannel = huge }))},
		{"SimulateNMP/NaN bridge bandwidth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.BridgeBytesPerCy = nan }))},
		{"SimulateNMP/bridge bandwidth below the floor", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.BridgeBytesPerCy = 1e-300 }))},
		{"SimulateNMP/forwarding hit rate above 1", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.ForwardingHitRate = 2 }))},
		{"SimulateNMP/NaN forwarding hit rate", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.ForwardingHitRate = nan }))},
		{"SimulateNMP/negative forwarding hit rate", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.ForwardingHitRate = -1 }))},
		{"SimulateNMP/negative hybrid threshold", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.HybridThresholdBytes = -5 }))},
		{"SimulateNMP/negative load queue depth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.PELoadQueueDepth = -3 }))},
		{"SimulateNMP/zero load queue depth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.PELoadQueueDepth = 0 }))},
		{"SimulateNMP/negative P3 queue depth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.P3QueueDepth = -3 }))},
		{"SimulateNMP/zero P3 queue depth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.P3QueueDepth = 0 }))},
		{"SimulateNMP/huge P3 queue depth", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) { c.P3QueueDepth = huge }))},
		// The PE and P3-depth caps together allow 2^23 P3 slots on a
		// node's 8 channels; the footprint ceiling bounds their product.
		{"SimulateNMP/P3 slots past the ceiling", simNMP(tr, nmpWith(func(c *nmppak.NMPConfig) {
			c.PEsPerChannel, c.P3QueueDepth = 1<<10, 1<<10
		}))},
		{"NewNMPEngine/P3 slots past the ceiling", func() error {
			_, err := nmppak.NewNMPEngine(tr, nmpWith(func(c *nmppak.NMPConfig) { c.PEsPerChannel, c.P3QueueDepth = 1<<10, 1<<8 }))
			return err
		}},
		{"NewNMPEngine/nil trace", func() error { _, err := nmppak.NewNMPEngine(nil, nmppak.DefaultNMPConfig()); return err }},
		{"NewNMPEngine/zero config", func() error { _, err := nmppak.NewNMPEngine(tr, nmppak.NMPConfig{}); return err }},
		{"SimulateCPU/nil trace", simCPU(nil, nmppak.DefaultCPUConfig())},
		{"SimulateCPU/zero config", simCPU(tr, nmppak.CPUConfig{})},
		{"SimulateCPU/negative threads", simCPU(tr, cpuWith(func(c *nmppak.CPUConfig) { c.Threads = -1 }))},
		{"SimulateCPU/huge threads", simCPU(tr, cpuWith(func(c *nmppak.CPUConfig) { c.Threads = huge }))},
		{"SimulateCPU/unknown flow", simCPU(tr, cpuWith(func(c *nmppak.CPUConfig) { c.Flow = 7 }))},
		{"SimulateGPU/nil trace", simGPU(nil, nmppak.DefaultGPUConfig())},
		{"SimulateGPU/zero config", simGPU(tr, nmppak.GPUConfig{})},
		{"SimulateGPU/NaN memory", simGPU(tr, gpuWith(func(c *nmppak.GPUConfig) { c.MemoryGB = nan }))},
		{"SimulateGPU/negative memory", simGPU(tr, gpuWith(func(c *nmppak.GPUConfig) { c.MemoryGB = -1 }))},
		{"Assemble/zero config", func() error { _, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{}); return err }},
		{"Assemble/k above 32", func() error { _, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{K: 33}); return err }},
		{"Assemble/unknown flow", func() error { _, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{K: 32, Flow: 7}); return err }},
		{"Assemble/observer on several batches", func() error {
			_, err := nmppak.Assemble(reads, nmppak.AssemblyConfig{K: 32, Batches: 3, Observer: trace.NewBuilder(32)})
			return err
		}},
		{"CaptureTrace/zero k", func() error { _, _, err := nmppak.CaptureTrace(reads, 0, 0, 0); return err }},
		{"CaptureTrace/negative k", func() error { _, _, err := nmppak.CaptureTrace(reads, -5, 0, 0); return err }},
		{"CountKmers/zero k", func() error { _, err := nmppak.CountKmers(reads, 0, 0); return err }},
		{"CountKmers/k above 32", func() error { _, err := nmppak.CountKmers(reads, 40, 0); return err }},
		{"BuildGraph/nil result", func() error { _, err := nmppak.BuildGraph(nil); return err }},
		{"BuildGraph/zero result", func() error { _, err := nmppak.BuildGraph(&nmppak.KmerResult{}); return err }},
		{"SimulateScaleOut/nil trace", func() error {
			_, err := nmppak.SimulateScaleOut(reads, nil, soWith(func(*nmppak.ScaleOutConfig) {}))
			return err
		}},
		{"SimulateScaleOut/zero config", func() error { _, err := nmppak.SimulateScaleOut(reads, tr, nmppak.ScaleOutConfig{}); return err }},
		{"SimulateScaleOut/huge node count", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Nodes = huge }))
			return err
		}},
		{"SimulateScaleOut/P3 slots past the run ceiling", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Nodes = 1 << 16 }))
			return err
		}},
		{"SimulateScaleOut/deep P3 queues on many nodes", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Nodes, c.NMP.P3QueueDepth = 128, 1<<10 }))
			return err
		}},
		{"SimulateScaleOut/unpriceable link degrade", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) {
				c.Faults = &nmppak.FaultPlan{Events: []nmppak.FaultEvent{
					{Kind: nmppak.FaultLinkDegrade, Cycle: 1000, Src: 0, Dst: 1, Factor: 1e-9},
				}}
			}))
			return err
		}},
		{"SimulateScaleOut/underflowing link degrade", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) {
				c.Overlap, c.CheckpointEvery = true, 1
				c.Faults = &nmppak.FaultPlan{Events: []nmppak.FaultEvent{
					{Kind: nmppak.FaultLinkDegrade, Cycle: 1000, Src: 0, Dst: 1, Factor: 1e-300},
				}}
			}))
			return err
		}},
		{"SimulateScaleOut/torus shape past the int range", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) {
				c.Nodes, c.Topo = 4, nmppak.TorusTopo(1<<62+1, 4) // x*y wraps to 4
			}))
			return err
		}},
		{"SimulateScaleOut/link latency past the cycle range", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) {
				c.Nodes, c.Topo = 64, nmppak.TorusTopo(8, 8)
				c.Topo.LatencyCycles = 1 << 58 // the barrier would wrap negative
			}))
			return err
		}},
		{"SimulateScaleOut/zero-value minimizer partitioner", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.MinimizerPartitioner{} }))
			return err
		}},
		{"SimulateScaleOut/negative minimizer length", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.MinimizerPartitioner{M: -3} }))
			return err
		}},
		{"SimulateScaleOut/zero-value balanced partitioner", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.BalancedPartitioner{} }))
			return err
		}},
		{"SimulateScaleOut/zero minimizer length through NewMinimizerPartitioner", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.NewMinimizerPartitioner(0) }))
			return err
		}},
		{"SimulateScaleOut/zero minimizer length through NewBalancedPartitioner", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.NewBalancedPartitioner(nil, 0, 2) }))
			return err
		}},
		{"SimulateScaleOut/zero minimizer length through NewRebalancePartitioner", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.NewRebalancePartitioner(0, 1) }))
			return err
		}},
		{"SimulateScaleOut/zero rebalance period", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.Partitioner = nmppak.NewRebalancePartitioner(12, 0) }))
			return err
		}},
		{"SimulateScaleOut/zero NMP config", func() error {
			_, err := nmppak.SimulateScaleOut(reads, tr, soWith(func(c *nmppak.ScaleOutConfig) { c.NMP = nmppak.NMPConfig{} }))
			return err
		}},
		{"SimulateScaleOut/static DIMM mapping", namesStatic(func() error { _, err := nmppak.SimulateScaleOut(reads, tr, static); return err })},
		{"CheckpointScaleOut/nil trace", func() error {
			_, err := nmppak.CheckpointScaleOut(reads, nil, soWith(func(*nmppak.ScaleOutConfig) {}), 1)
			return err
		}},
		{"CheckpointScaleOut/zero config", func() error { _, err := nmppak.CheckpointScaleOut(reads, tr, nmppak.ScaleOutConfig{}, 1); return err }},
		{"CheckpointScaleOut/negative iteration", func() error {
			_, err := nmppak.CheckpointScaleOut(reads, tr, soWith(func(*nmppak.ScaleOutConfig) {}), -1)
			return err
		}},
		{"CheckpointScaleOut/static DIMM mapping", namesStatic(func() error { _, err := nmppak.CheckpointScaleOut(reads, tr, static, 1); return err })},
		{"RestoreScaleOut/nil blob", func() error {
			_, err := nmppak.RestoreScaleOut(tr, soWith(func(*nmppak.ScaleOutConfig) {}), nil)
			return err
		}},
		{"RestoreScaleOut/nil trace", func() error {
			_, err := nmppak.RestoreScaleOut(nil, soWith(func(*nmppak.ScaleOutConfig) {}), []byte{1, 2, 3})
			return err
		}},
		{"RestoreScaleOut/zero config", func() error { _, err := nmppak.RestoreScaleOut(tr, nmppak.ScaleOutConfig{}, nil); return err }},
		{"UnmarshalScaleOutCheckpoint/nil blob", func() error { _, err := nmppak.UnmarshalScaleOutCheckpoint(nil); return err }},
		{"NewScaleOutSession/nil trace", func() error {
			_, err := nmppak.NewScaleOutSession(reads, nil, soWith(func(*nmppak.ScaleOutConfig) {}))
			return err
		}},
		{"NewScaleOutSession/zero config", func() error { _, err := nmppak.NewScaleOutSession(reads, tr, nmppak.ScaleOutConfig{}); return err }},
		{"NewScaleOutSession/static DIMM mapping", namesStatic(func() error { _, err := nmppak.NewScaleOutSession(reads, tr, static); return err })},
		{"ResumeScaleOutSession/nil blob", func() error {
			_, err := nmppak.ResumeScaleOutSession(tr, soWith(func(*nmppak.ScaleOutConfig) {}), nil)
			return err
		}},
		{"ResumeScaleOutSession/nil trace", func() error {
			_, err := nmppak.ResumeScaleOutSession(nil, soWith(func(*nmppak.ScaleOutConfig) {}), []byte{1})
			return err
		}},
		{"Fleet.Run/zero fleet", func() error {
			_, err := nmppak.Fleet{}.Run([]nmppak.FleetJob{{Trace: tr, Config: soWith(func(*nmppak.ScaleOutConfig) {}), Reads: reads}})
			return err
		}},
		{"Fleet.Run/no jobs", func() error { _, err := nmppak.Fleet{Nodes: 4}.Run(nil); return err }},
		{"Fleet.Run/huge fleet", func() error {
			_, err := nmppak.Fleet{Nodes: huge}.Run([]nmppak.FleetJob{{Trace: tr, Config: soWith(func(*nmppak.ScaleOutConfig) {}), Reads: reads}})
			return err
		}},
		{"Fleet.Run/nil trace", func() error {
			_, err := nmppak.Fleet{Nodes: 4}.Run([]nmppak.FleetJob{{Config: soWith(func(*nmppak.ScaleOutConfig) {}), Reads: reads}})
			return err
		}},
		{"Fleet.Run/zero job config", func() error {
			_, err := nmppak.Fleet{Nodes: 4}.Run([]nmppak.FleetJob{{Trace: tr, Reads: reads}})
			return err
		}},
		{"Fleet.Run/demand above fleet", func() error {
			_, err := nmppak.Fleet{Nodes: 1}.Run([]nmppak.FleetJob{{Trace: tr, Config: soWith(func(*nmppak.ScaleOutConfig) {}), Reads: reads}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.call(); err == nil {
				t.Fatal("returned no error")
			}
		})
	}

	// A nil counting sample carries no weights: the balanced partitioner
	// falls back to hashing every super-bucket, as for an empty sample.
	t.Run("NewBalancedPartitioner/nil sample", func(t *testing.T) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panicked: %v", r)
			}
		}()
		empty := nmppak.NewBalancedPartitioner(&nmppak.KmerResult{K: 32}, 12, 4)
		if got := nmppak.NewBalancedPartitioner(nil, 12, 4); !reflect.DeepEqual(got, empty) {
			t.Fatal("nil sample differs from an empty one")
		}
	})
}
