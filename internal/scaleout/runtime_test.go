package scaleout

import (
	"bytes"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"nmppak/internal/nmp"
	"nmppak/internal/telemetry"
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
	for _, tc := range []topo.Config{topo.Default(), topo.Torus(0, 0), topo.DragonflyGroups()} {
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
		{"NaN link", func(c *Config) { c.Topo.BytesPerCycle = math.NaN() }, "bandwidth"},
		{"unpriceable link", func(c *Config) { c.Topo.BytesPerCycle = 1e-300 }, "bandwidth"},
		{"latency", func(c *Config) { c.Topo.LatencyCycles = -1 }, "latency"},
		{"torus", func(c *Config) { c.Topo.Kind = topo.Torus2D; c.Topo.TorusX, c.Topo.TorusY = 3, 1 }, "rectangular"},
		{"overlap+rebalance", func(c *Config) { c.Partitioner = NewRebalancePartitioner(12, 1); c.Overlap = true }, "BSP"},
		{"rebalance zero period", func(c *Config) { c.Partitioner = &RebalancePartitioner{M: 12} }, "Every"},
		{"nil rebalance partitioner", func(c *Config) { c.Partitioner = (*RebalancePartitioner)(nil) }, "Partitioner"},
		{"nil balanced partitioner", func(c *Config) { c.Partitioner = (*BalancedPartitioner)(nil) }, "Partitioner"},
		{"zero-value minimizer", func(c *Config) { c.Partitioner = MinimizerPartitioner{} }, "minimizer length"},
		{"negative minimizer length", func(c *Config) { c.Partitioner = MinimizerPartitioner{M: -3} }, "minimizer length"},
		{"zero-value minimizer pointer", func(c *Config) { c.Partitioner = &MinimizerPartitioner{} }, "minimizer length"},
		{"zero-value balanced", func(c *Config) { c.Partitioner = BalancedPartitioner{} }, "minimizer length"},
		{"zero-value balanced pointer", func(c *Config) { c.Partitioner = &BalancedPartitioner{} }, "minimizer length"},
		{"rebalance past uint16 owners", func(c *Config) {
			c.Partitioner = NewRebalancePartitioner(12, 1)
			c.Nodes = 1<<16 + 1
		}, "ownership table"},
		{"nmp", func(c *Config) { c.NMP.PEsPerChannel = 0 }, "PEs per channel"},
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
// runtime layer — same trace, same network — across every
// topology, including a Degraded wrapper with slowed and cut links.
func TestParallelOutcomeMatchesSerial(t *testing.T) {
	reads := testReads(t, 12_000)
	tr := testTrace(t, reads, 32, 3)
	const nodes = 8

	outcome := func(t *testing.T, net topo.Network, cfg Config, workers int) *Result {
		t.Helper()
		cfg.Workers = workers
		res := &Result{Nodes: cfg.Nodes, PerNode: make([]NodeStats, cfg.Nodes)}
		rt, err := newRuntime(tr, topo.NewFlight(topo.NewDegraded(net)), cfg, res, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.seal(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	topos := map[string]topo.Config{
		"fullmesh":  topo.Default(),
		"torus":     topo.Torus(0, 0),
		"dragonfly": topo.DragonflyGroups(),
	}
	for name, tc := range topos {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(nodes)
			cfg.Overlap = true
			cfg.Topo = tc
			net, err := cfg.Topo.Build(nodes)
			if err != nil {
				t.Fatal(err)
			}
			want := outcome(t, net, cfg, 1)
			if got := outcome(t, net, cfg, 4); !reflect.DeepEqual(got, want) {
				t.Errorf("parallel outcome diverges: %+v vs %+v", got.Compact, want.Compact)
			}
		})
	}

	t.Run("degraded", func(t *testing.T) {
		cfg := DefaultConfig(nodes)
		cfg.Overlap = true
		cfg.Topo = topo.Torus(0, 0)
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
		want := outcome(t, degrade(), cfg, 1)
		if got := outcome(t, degrade(), cfg, 4); !reflect.DeepEqual(got, want) {
			t.Errorf("degraded parallel outcome diverges: %+v vs %+v", got.Compact, want.Compact)
		}
	})
}

// chromeDigest is the FNV-64a digest of a collector's Chrome trace.
func chromeDigest(t *testing.T, c *telemetry.Collector) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// The Chrome traces of instrumented non-elastic runs are pinned by FNV-64a
// digests recorded before the static and elastic runtimes were one type:
// Simulate under the static BSP, static overlapped and rebalancing
// disciplines, a Checkpoint at the middle iteration under each of them,
// and the Restore of each of those blobs.
func TestRuntimeTraceDigests(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)
	mid := len(tr.Iterations) / 2
	config := func(overlap bool, p Partitioner) Config {
		cfg := DefaultConfig(4)
		cfg.Workers = 1
		cfg.Topo = topo.Torus(0, 0)
		cfg.Overlap = overlap
		if p != nil {
			cfg.Partitioner = p
		}
		cfg.Telemetry = telemetry.New()
		return cfg
	}
	for _, tc := range []struct {
		name    string
		overlap bool
		p       Partitioner
		sim     uint64
		ckpt    uint64
		restore uint64
	}{
		{"bsp", false, nil, 0xa85a46ee1868874b, 0x0c28ab17f0cf274f, 0xbeb72972fd30fe8d},
		{"overlap", true, nil, 0x5bcf96a899e1c57d, 0x0ef7d54339f3ae94, 0x5126b74c7ba6e756},
		{"rebalance", false, NewRebalancePartitioner(12, 2), 0xffa0cb26188249a6, 0x046382d5ad6cd165, 0x3272d3aa03296a72},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config(tc.overlap, tc.p)
			if _, err := Simulate(reads, tr, cfg); err != nil {
				t.Fatal(err)
			}
			if got := chromeDigest(t, cfg.Telemetry); got != tc.sim {
				t.Errorf("Simulate trace digest %#x, want %#x", got, tc.sim)
			}
			cfg = config(tc.overlap, tc.p)
			blob, err := Checkpoint(reads, tr, cfg, mid)
			if err != nil {
				t.Fatal(err)
			}
			if got := chromeDigest(t, cfg.Telemetry); got != tc.ckpt {
				t.Errorf("Checkpoint trace digest %#x, want %#x", got, tc.ckpt)
			}
			cfg = config(tc.overlap, tc.p)
			if _, err := Restore(tr, cfg, blob); err != nil {
				t.Fatal(err)
			}
			if got := chromeDigest(t, cfg.Telemetry); got != tc.restore {
				t.Errorf("Restore trace digest %#x, want %#x", got, tc.restore)
			}
		})
	}
}
