package scaleout

import (
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/nmp"
	"nmppak/internal/topo"
)

// Overlapped execution relaxes the BSP barriers without adding work, so
// on the same shards, trace and topology it must never lose — on the
// compaction phase it is scheduling, and therefore end to end. The
// property must hold on every topology: multi-hop routing changes how
// much link time there is to hide, not the direction of the comparison.
func TestOverlapNeverSlowerThanBSP(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	for _, tc := range []topo.Config{topo.Default(), topo.Torus(0, 0), topo.DragonflyGroups(0)} {
		for _, n := range []int{1, 2, 4, 8} {
			for _, p := range []Partitioner{HashPartitioner{}, NewMinimizerPartitioner(12)} {
				bsp := DefaultConfig(n)
				bsp.Partitioner = p
				bsp.Topo = tc
				ov := bsp
				ov.Overlap = true
				rb, err := Simulate(reads, tr, bsp)
				if err != nil {
					t.Fatal(err)
				}
				ro, err := Simulate(reads, tr, ov)
				if err != nil {
					t.Fatal(err)
				}
				if ro.Compact.Total() > rb.Compact.Total() {
					t.Fatalf("n=%d %s %s: overlapped compact %d cycles slower than BSP %d",
						n, rb.Topology, p.Name(), ro.Compact.Total(), rb.Compact.Total())
				}
				if ro.TotalCycles > rb.TotalCycles {
					t.Fatalf("n=%d %s %s: overlapped total %d cycles slower than BSP %d",
						n, rb.Topology, p.Name(), ro.TotalCycles, rb.TotalCycles)
				}
				// Same compute, same traffic: only the schedule differs.
				if ro.ExchangedBytes != rb.ExchangedBytes || ro.HaloBytes != rb.HaloBytes {
					t.Fatalf("n=%d %s %s: overlap moved different bytes: %d/%d vs %d/%d",
						n, rb.Topology, p.Name(), ro.ExchangedBytes, ro.HaloBytes, rb.ExchangedBytes, rb.HaloBytes)
				}
				if ro.Imbalance != rb.Imbalance {
					t.Fatalf("n=%d %s %s: per-node busy time should not depend on the schedule: %v vs %v",
						n, rb.Topology, p.Name(), ro.Imbalance, rb.Imbalance)
				}
			}
		}
	}
}

// The overlap win comes from hiding link time behind lagging compute, so
// it must grow monotonically as the links get slower (and the BSP
// exchange more expensive).
func TestOverlapBenefitGrowsAsLinkShrinks(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	prev := int64(-1)
	for _, gbps := range []float64{15.625, 8, 4, 2} { // B/cycle: 25 -> 3.2 GB/s
		bsp := DefaultConfig(8)
		bsp.Topo.BytesPerCycle = gbps
		ov := bsp
		ov.Overlap = true
		rb, err := Simulate(reads, tr, bsp)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Simulate(reads, tr, ov)
		if err != nil {
			t.Fatal(err)
		}
		benefit := int64(rb.Compact.Total() - ro.Compact.Total())
		if benefit < 0 {
			t.Fatalf("bw=%v: negative overlap benefit %d", gbps, benefit)
		}
		if benefit < prev {
			t.Fatalf("bw=%v: overlap benefit %d shrank below %d at higher bandwidth", gbps, benefit, prev)
		}
		prev = benefit
	}
	if prev == 0 {
		t.Fatal("overlap never beat BSP at any bandwidth")
	}
}

// With one node there is nothing to exchange or synchronize across the
// interconnect: overlapped and BSP replays must both equal the
// single-node nmp.Simulate outcome cycle for cycle.
func TestOverlapN1MatchesBSPAndNMP(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	bsp := DefaultConfig(1)
	ov := DefaultConfig(1)
	ov.Overlap = true
	rb, err := Simulate(reads, tr, bsp)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Simulate(reads, tr, ov)
	if err != nil {
		t.Fatal(err)
	}
	single, err := nmp.Simulate(tr, bsp.NMP)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Compact.Total() != single.Cycles || rb.Compact.Total() != single.Cycles {
		t.Fatalf("N=1: overlap %d / BSP %d / nmp.Simulate %d cycles disagree",
			ro.Compact.Total(), rb.Compact.Total(), single.Cycles)
	}
	if ro.TotalCycles != rb.TotalCycles {
		t.Fatalf("N=1 totals differ: overlap %d vs BSP %d", ro.TotalCycles, rb.TotalCycles)
	}
	if ro.Compact.Exchange != 0 || ro.CommCycles != 0 {
		t.Fatalf("N=1 overlap exposed communication: %d exchange, %d comm",
			ro.Compact.Exchange, ro.CommCycles)
	}
}

// Overlapped scheduling runs on the shared event kernel and must be as
// reproducible as the BSP arithmetic it replaces.
func TestOverlapDeterminism(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	cfg := DefaultConfig(8)
	cfg.Overlap = true
	a, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(reads, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles || a.Compact != b.Compact || a.CommCycles != b.CommCycles {
		t.Fatalf("nondeterministic overlap: %+v vs %+v", a.Compact, b.Compact)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	base := DefaultConfig(2)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"k zero", func(c *Config) { c.K = 0 }, "K must be"},
		{"k negative", func(c *Config) { c.K = -3 }, "K must be"},
		{"k too large", func(c *Config) { c.K = 33 }, "K must be"},
		{"workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"partitioner", func(c *Config) { c.Partitioner = nil }, "Partitioner"},
		{"link", func(c *Config) { c.Topo.BytesPerCycle = 0 }, "bandwidth"},
		{"latency", func(c *Config) { c.Topo.LatencyCycles = -1 }, "latency"},
		{"torus", func(c *Config) { c.Topo.Kind = topo.Torus2D; c.Topo.TorusX, c.Topo.TorusY = 3, 1 }, "rectangular"},
		{"dragonfly", func(c *Config) { c.Topo.Kind = topo.Dragonfly; c.Topo.GroupSize = 3 }, "divide"},
		{"overlap+rebalance", func(c *Config) { c.Partitioner = NewRebalancePartitioner(12, 1); c.Overlap = true }, "BSP"},
		{"rebalance zero period", func(c *Config) { c.Partitioner = &RebalancePartitioner{M: 12} }, "Every"},
		{"nmp", func(c *Config) { c.NMP.Channels = 0 }, "channel"},
	} {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// The validation must also gate the simulation entry points.
		if _, err := Simulate(nil, nil, cfg); err == nil {
			t.Errorf("%s: Simulate accepted invalid config", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestParallelOutcomeMatchesSerial compares overlapped runs pre-stepped
// inline (Workers=1) and on goroutines (Workers=4) directly at the
// runtime layer — same sharded trace, same network — across every
// topology, including a Degraded wrapper with slowed and cut links.
func TestParallelOutcomeMatchesSerial(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	const nodes = 8

	outcome := func(t *testing.T, st *ShardedTrace, net topo.Network, cfg Config, workers int) *compactOutcome {
		t.Helper()
		cfg.Workers = workers
		rt, err := newRuntime(st, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.runOverlapped()
	}
	topos := map[string]topo.Config{
		"fullmesh":  topo.Default(),
		"torus":     topo.Torus(0, 0),
		"dragonfly": topo.DragonflyGroups(0),
	}
	for name, tc := range topos {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(nodes)
			cfg.Overlap = true
			cfg.Topo = tc
			st := ShardTrace(tr, nodes, cfg.Partitioner)
			net, err := cfg.Topo.Build(nodes)
			if err != nil {
				t.Fatal(err)
			}
			want := outcome(t, st, net, cfg, 1)
			if got := outcome(t, st, net, cfg, 4); !reflect.DeepEqual(got, want) {
				t.Errorf("parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
			}
		})
	}

	t.Run("degraded", func(t *testing.T) {
		cfg := DefaultConfig(nodes)
		cfg.Overlap = true
		cfg.Topo = topo.Torus(0, 0)
		st := ShardTrace(tr, nodes, cfg.Partitioner)
		net, err := cfg.Topo.Build(nodes)
		if err != nil {
			t.Fatal(err)
		}
		degrade := func() *topo.Degraded {
			d := topo.NewDegraded(net)
			if err := d.Slow(0, 1, 0.5); err != nil {
				t.Fatal(err)
			}
			if err := d.CutRoute(2, 3); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(nil); err != nil {
				t.Fatal(err)
			}
			return d
		}
		want := outcome(t, st, degrade(), cfg, 1)
		if got := outcome(t, st, degrade(), cfg, 4); !reflect.DeepEqual(got, want) {
			t.Errorf("degraded parallel outcome diverges: %+v vs %+v", got.Phase, want.Phase)
		}
	})
}
