package scaleout

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/fault"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
)

// conserved sums the sharding-invariant output aggregates over every
// node's replay result: the total MacroNodes processed on the NMP and CPU
// paths. A recovered run must commit each global iteration's work exactly
// once, so these equal the fault-free totals regardless of who executed
// what.
func conserved(res *Result) (nmpTot, cpuTot int64) {
	for _, r := range res.NMP {
		nmpTot += r.NodesNMP
		cpuTot += r.NodesCPU
	}
	return
}

// A dormant fault plan (events scheduled far past the end of the run) and
// no checkpoint cadence makes the run elastic but changes nothing: the
// result must be identical to the fault-free run's, field for field, in
// both disciplines.
func TestElasticDormantPlanMatchesGolden(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.Overlap = overlap
		want, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fault.NodeLossAt(1, 1<<40, 500)
		got, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.FaultsInjected != 0 || got.NodesLost != 0 || got.Recoveries != 0 {
			t.Fatalf("overlap=%v: dormant plan injected %d faults, lost %d nodes",
				overlap, got.FaultsInjected, got.NodesLost)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overlap=%v: elastic run with a dormant plan differs from golden:\n%+v\nvs\n%+v",
				overlap, got, want)
		}
	}
}

// The recovery matrix: a node loss mid-compaction on every topology, in
// both disciplines, with and without periodic checkpoints. The run must
// complete, conserve the committed output against the fault-free run, pay
// for the recovery in cycles, and repeat deterministically.
func TestElasticRecoveryMatrix(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	topos := []struct {
		name string
		c    topo.Config
	}{
		{"mesh", topo.Default()},
		{"torus", topo.Torus(0, 0)},
		{"dragonfly", topo.DragonflyGroups()},
	}
	for _, tp := range topos {
		for _, overlap := range []bool{false, true} {
			for _, every := range []int{0, 2} {
				name := tp.name + map[bool]string{false: "-bsp", true: "-overlap"}[overlap]
				if every > 0 {
					name += "-ckpt"
				}
				t.Run(name, func(t *testing.T) {
					base := DefaultConfig(4)
					base.Topo = tp.c
					base.Overlap = overlap
					golden, err := Simulate(reads, tr, base)
					if err != nil {
						t.Fatal(err)
					}
					wantNMP, wantCPU := conserved(golden)

					cfg := base
					cfg.CheckpointEvery = every
					cfg.Faults = fault.NodeLossAt(2, golden.Compact.Total()/2, 500)
					res, err := Simulate(reads, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.NodesLost != 1 || res.Recoveries != 1 || res.FaultsInjected != 1 {
						t.Fatalf("lost=%d recoveries=%d injected=%d, want 1/1/1",
							res.NodesLost, res.Recoveries, res.FaultsInjected)
					}
					if gotNMP, gotCPU := conserved(res); gotNMP != wantNMP || gotCPU != wantCPU {
						t.Fatalf("committed output not conserved: %d/%d MacroNodes vs fault-free %d/%d",
							gotNMP, gotCPU, wantNMP, wantCPU)
					}
					if res.TotalCycles <= golden.TotalCycles {
						t.Fatalf("recovered run (%d cycles) not slower than fault-free (%d)",
							res.TotalCycles, golden.TotalCycles)
					}
					if res.RecoveryCycles < 500 {
						t.Fatalf("recovery cycles %d below the detection latency", res.RecoveryCycles)
					}
					if res.RepartitionBytes <= 0 && len(tr.Iterations) > 0 {
						t.Fatal("recovery moved no shard bytes to the survivors")
					}
					if every > 0 && res.Checkpoints == 0 {
						t.Fatal("periodic checkpointing captured nothing")
					}
					if every == 0 && res.Checkpoints != 0 {
						t.Fatalf("cadence 0 captured %d periodic checkpoints", res.Checkpoints)
					}
					again, err := Simulate(reads, tr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, res) {
						t.Fatalf("recovered run not deterministic:\n%+v\nvs\n%+v", again, res)
					}
				})
			}
		}
	}
}

// Checkpoint cadence bounds the work a recovery discards: with the same
// mid-run loss, a tighter cadence never loses more node-iterations than a
// looser one, and no checkpoints loses the most.
func TestElasticCadenceBoundsLostWork(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	base := DefaultConfig(4)
	golden, err := Simulate(reads, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	fc := golden.Compact.Total() * 3 / 4
	lost := map[int]int64{}
	for _, every := range []int{0, 1, 4} {
		cfg := base
		cfg.CheckpointEvery = every
		cfg.Faults = fault.NodeLossAt(1, fc, 500)
		res, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lost[every] = res.LostIterations
		if every > 0 {
			if res.Checkpoints == 0 || res.CheckpointBytes <= 0 || res.CheckpointCycles <= 0 {
				t.Fatalf("every=%d: no checkpoint accounting: %+v", every, res)
			}
		}
	}
	if lost[1] > lost[4] || lost[4] > lost[0] {
		t.Fatalf("lost work not bounded by cadence: every=1 %d, every=4 %d, none %d",
			lost[1], lost[4], lost[0])
	}
	if lost[0] <= 0 {
		t.Fatal("a loss without checkpoints must discard work")
	}
}

// Link faults change timing, not output: a degraded route slows the run,
// an outage on a multi-hop topology detours and completes, and an outage
// that disconnects live nodes is a run error, not a hang or a panic.
func TestElasticLinkFaults(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)

	base := DefaultConfig(4)
	base.Topo = topo.Torus(0, 0)
	golden, err := Simulate(reads, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	wantNMP, wantCPU := conserved(golden)

	cfg := base
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkDegrade, Cycle: 0, Src: 0, Dst: 1, Factor: 0.1},
	}}
	slow, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalCycles <= golden.TotalCycles {
		t.Fatalf("degraded run (%d cycles) not slower than healthy (%d)", slow.TotalCycles, golden.TotalCycles)
	}
	if gotNMP, gotCPU := conserved(slow); gotNMP != wantNMP || gotCPU != wantCPU {
		t.Fatal("link degradation changed the committed output")
	}
	if slow.NodesLost != 0 || slow.Recoveries != 0 {
		t.Fatalf("link degradation triggered a recovery: %+v", slow)
	}

	cfg = base
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkOutage, Cycle: 0, Src: 0, Dst: 1},
	}}
	cut, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut.TotalCycles < golden.TotalCycles {
		t.Fatalf("detoured run (%d cycles) beat the healthy run (%d)", cut.TotalCycles, golden.TotalCycles)
	}
	if gotNMP, gotCPU := conserved(cut); gotNMP != wantNMP || gotCPU != wantCPU {
		t.Fatal("link outage changed the committed output")
	}

	// A full-mesh route is port-to-port: cutting it severs the endpoints,
	// which with both still live is an unrecoverable configuration.
	mesh := DefaultConfig(4)
	mesh.Faults = cfg.Faults
	if _, err := Simulate(reads, tr, mesh); err == nil ||
		!strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("disconnecting outage returned %v, want a disconnection error", err)
	}
}

// The run's one Flight routes every pair during the prelude, before the
// compaction phase applies its link faults; a cut must still reroute, and
// a slowdown still stretch, every message after it. So a run whose faults
// land at cycle 0 drains its compaction phase exactly as a runtime over a
// Flight that has routed nothing yet, in both disciplines.
func TestLinkFaultsReachTheRunFlight(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		cfg := DefaultConfig(8)
		cfg.Overlap = overlap
		cfg.Topo = topo.Torus(0, 0) // torus4x2: cutting 0 -> 1 detours
		cfg.Faults = &fault.Plan{Events: []fault.Event{
			{Kind: fault.LinkOutage, Cycle: 0, Src: 0, Dst: 1},
			{Kind: fault.LinkDegrade, Cycle: 0, Src: 2, Dst: 3, Factor: 0.5},
		}}
		whole, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net, err := cfg.Topo.Build(cfg.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{Nodes: cfg.Nodes, PerNode: make([]NodeStats, cfg.Nodes)}
		rt, err := newRuntime(tr, topo.NewFlight(topo.NewDegraded(net)), cfg, res, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !overlap {
			if err := rt.run(0, rt.iters); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.seal(); err != nil {
			t.Fatal(err)
		}
		if whole.Compact != res.Compact || whole.FaultsInjected != 2 {
			t.Errorf("overlap=%v: compaction phase %+v after the prelude routed every pair, %+v on a fresh Flight (%d faults injected)",
				overlap, whole.Compact, res.Compact, whole.FaultsInjected)
		}
	}
}

// An instrumented recovered run must surface the fault, detection,
// restore and re-partition on the timeline, and its telemetry comm
// accounting must still reproduce the runtime's bit for bit.
func TestElasticTelemetry(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		plain := DefaultConfig(4)
		plain.Overlap = overlap
		golden, err := Simulate(reads, tr, plain)
		if err != nil {
			t.Fatal(err)
		}
		cfg := plain
		cfg.CheckpointEvery = 2
		cfg.Faults = fault.NodeLossAt(2, golden.Compact.Total()/2, 500)

		bare, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry = telemetry.New()
		res, err := Simulate(reads, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles != bare.TotalCycles || res.Compact != bare.Compact {
			t.Fatalf("overlap=%v: collection perturbed the run: %d vs %d cycles",
				overlap, res.TotalCycles, bare.TotalCycles)
		}

		u := telemetry.Analyze(cfg.Telemetry)
		if u.Total != res.TotalCycles {
			t.Fatalf("overlap=%v: telemetry horizon %d != TotalCycles %d", overlap, u.Total, res.TotalCycles)
		}
		if u.CommFraction != res.CommFraction {
			t.Fatalf("overlap=%v: telemetry comm fraction %v != runtime %v", overlap, u.CommFraction, res.CommFraction)
		}

		seen := map[telemetry.SpanKind]int{}
		var runtimeTrack *telemetry.Track
		for _, trk := range cfg.Telemetry.Tracks() {
			if trk.Kind == telemetry.TrackRuntime {
				runtimeTrack = trk
			}
		}
		if runtimeTrack == nil {
			t.Fatal("no runtime track recorded")
		}
		for _, s := range runtimeTrack.Spans {
			seen[s.Kind]++
			if s.End < s.Start {
				t.Fatalf("span %v ends before it starts", s)
			}
		}
		for _, k := range []telemetry.SpanKind{
			telemetry.SpanFault, telemetry.SpanDetect, telemetry.SpanRestore,
			telemetry.SpanRepartition, telemetry.SpanCheckpoint,
		} {
			if seen[k] == 0 {
				t.Fatalf("overlap=%v: no %v span on the runtime track", overlap, k)
			}
		}
	}
}

// The Chrome traces of instrumented recovered runs are pinned by FNV-64a
// digests. Every worker count pre-steps each epoch before draining it, so
// comparing Workers values cannot tell whether a recovery discards the
// telemetry of pre-stepped iterations the drain never reached; the
// digests were recorded from a build that stepped each engine only when
// the schedule reached the iteration. The loss lands mid-epoch in every
// case, and with CheckpointEvery 0 it rolls the whole phase back.
func TestElasticTraceDigests(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, tc := range []struct {
		name    string
		overlap bool
		every   int
		want    uint64
	}{
		{"bsp/every2", false, 2, 0x3b5422c43db3d03e},
		{"bsp/every0", false, 0, 0x1f6703a17b8bb5f2},
		{"overlap/every2", true, 2, 0x36cbfac2dd161efd},
		{"overlap/every0", true, 0, 0x7b3e0e6f1d19bed5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Workers = 1
			cfg.Topo = topo.Torus(0, 0)
			cfg.Overlap = tc.overlap
			golden, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CheckpointEvery = tc.every
			cfg.Faults = fault.NodeLossAt(1, golden.Compact.Total()*3/5, 500)
			cfg.Telemetry = telemetry.New()
			if _, err := Simulate(reads, tr, cfg); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Telemetry.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := h.Sum64(); got != tc.want {
				t.Errorf("trace digest %#x, want %#x", got, tc.want)
			}
		})
	}
}

// Elastic knobs are rejected where they cannot work, and the external
// checkpoint surface refuses elastic runs (they manage their own
// recovery checkpoint).
func TestElasticValidation(t *testing.T) {
	tiny := &trace.Trace{K: 32}
	mk := func(mutate func(*Config)) Config {
		cfg := DefaultConfig(4)
		mutate(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		substr string
	}{
		{"negative cadence", mk(func(c *Config) { c.CheckpointEvery = -1 }), "CheckpointEvery"},
		{"rebalance", mk(func(c *Config) {
			c.Partitioner = NewRebalancePartitioner(12, 2)
			c.CheckpointEvery = 2
		}), "elastic"},
		{"kills all", mk(func(c *Config) {
			c.Faults = &fault.Plan{Events: []fault.Event{
				{Kind: fault.NodeLoss, Node: 0}, {Kind: fault.NodeLoss, Node: 1},
				{Kind: fault.NodeLoss, Node: 2}, {Kind: fault.NodeLoss, Node: 3},
			}}
		}), "survivor"},
		{"bad factor", mk(func(c *Config) {
			c.Faults = &fault.Plan{Events: []fault.Event{
				{Kind: fault.LinkDegrade, Src: 0, Dst: 1, Factor: 2},
			}}
		}), "factor"},
		{"unpriceable factor", mk(func(c *Config) {
			c.Faults = &fault.Plan{Events: []fault.Event{
				{Kind: fault.LinkDegrade, Cycle: 1000, Src: 0, Dst: 1, Factor: 1e-9},
			}}
		}), "floor"},
		{"underflowing factor", mk(func(c *Config) {
			c.Faults = &fault.Plan{Events: []fault.Event{
				{Kind: fault.LinkDegrade, Cycle: 1000, Src: 0, Dst: 1, Factor: 1e-300},
			}}
		}), "floor"},
		{"factor past a slow link's floor", mk(func(c *Config) {
			c.Topo.BytesPerCycle = 0.5
			c.Faults = &fault.Plan{Events: []fault.Event{
				{Kind: fault.LinkDegrade, Cycle: 1000, Src: 0, Dst: 1, Factor: 1e-3},
			}}
		}), "floor"},
	} {
		if _, err := Simulate(nil, tiny, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: Simulate error %v does not mention %q", tc.name, err, tc.substr)
		}
	}

	elastic := mk(func(c *Config) { c.CheckpointEvery = 2 })
	if _, err := Checkpoint(nil, tiny, elastic, 0); err == nil || !strings.Contains(err.Error(), "elastic") {
		t.Errorf("Checkpoint with elastic config returned %v", err)
	}
	if _, err := Restore(tiny, elastic, nil); err == nil {
		t.Error("Restore with elastic config must fail")
	}
}

// A recovered run's casualties stay frozen: the dead node's engine result
// covers only the iterations committed before the restore point, and
// survivors cover everything else.
func TestElasticFrozenCasualty(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	base := DefaultConfig(4)
	golden, err := Simulate(reads, tr, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.CheckpointEvery = 2
	cfg.Faults = fault.NodeLossAt(3, golden.Compact.Total()/2, 500)
	res, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead, live := res.NMP[3], golden.NMP[3]
	if dead.NodesNMP+dead.NodesCPU >= live.NodesNMP+live.NodesCPU {
		t.Fatalf("dead node processed %d MacroNodes, fault-free self processed %d — nothing was lost?",
			dead.NodesNMP+dead.NodesCPU, live.NodesNMP+live.NodesCPU)
	}
	var survivors int64
	for i, r := range res.NMP {
		if i != 3 {
			survivors += r.NodesNMP + r.NodesCPU
		}
	}
	wantNMP, wantCPU := conserved(golden)
	if survivors+dead.NodesNMP+dead.NodesCPU != wantNMP+wantCPU {
		t.Fatal("survivors + frozen casualty do not tile the global work")
	}
}

// Two node losses landing inside one detection window on an 8-node
// machine: the recovery must absorb both casualties (whether it detects
// them together or back to back), conserve the committed output against
// the fault-free run, and replay deterministically. This is the scenario
// a pairwise-only recovery path gets wrong — e.g. re-partitioning to
// survivors of the first loss while the second victim is already dead.
func TestElasticDoubleLossSameWindow(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, overlap := range []bool{false, true} {
		name := map[bool]string{false: "bsp", true: "overlap"}[overlap]
		t.Run(name, func(t *testing.T) {
			base := DefaultConfig(8)
			base.Overlap = overlap
			golden, err := Simulate(reads, tr, base)
			if err != nil {
				t.Fatal(err)
			}
			wantNMP, wantCPU := conserved(golden)

			const detect = 500
			at := golden.Compact.Total() / 2
			cfg := base
			cfg.CheckpointEvery = 2
			cfg.Faults = &fault.Plan{
				Events: []fault.Event{
					{Kind: fault.NodeLoss, Node: 2, Cycle: at},
					{Kind: fault.NodeLoss, Node: 5, Cycle: at + detect/5},
				},
				DetectCycles: detect,
			}
			res, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.NodesLost != 2 || res.FaultsInjected != 2 {
				t.Fatalf("lost=%d injected=%d, want 2/2", res.NodesLost, res.FaultsInjected)
			}
			if res.Recoveries < 1 || res.Recoveries > 2 {
				t.Fatalf("recoveries=%d, want 1 (batched) or 2 (back to back)", res.Recoveries)
			}
			if gotNMP, gotCPU := conserved(res); gotNMP != wantNMP || gotCPU != wantCPU {
				t.Fatalf("committed output not conserved: %d/%d MacroNodes vs fault-free %d/%d",
					gotNMP, gotCPU, wantNMP, wantCPU)
			}
			if res.TotalCycles <= golden.TotalCycles {
				t.Fatalf("doubly-recovered run (%d cycles) not slower than fault-free (%d)",
					res.TotalCycles, golden.TotalCycles)
			}
			if res.RecoveryCycles < detect {
				t.Fatalf("recovery cycles %d below the detection latency", res.RecoveryCycles)
			}
			again, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, res) {
				t.Fatalf("double-loss recovery not deterministic:\n%+v\nvs\n%+v", again, res)
			}
		})
	}
}
