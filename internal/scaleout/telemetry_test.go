package scaleout

import (
	"bytes"
	"sort"
	"testing"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/topo"
)

// telemetryCase is one cell of the topology x discipline matrix the
// conservation invariants are checked over.
type telemetryCase struct {
	name   string
	mutate func(*Config)
}

func telemetryCases() []telemetryCase {
	return []telemetryCase{
		{"mesh-bsp", func(c *Config) {}},
		{"mesh-overlap", func(c *Config) { c.Overlap = true }},
		{"torus-bsp", func(c *Config) { c.Topo = topo.Torus(0, 0) }},
		{"torus-overlap", func(c *Config) { c.Topo = topo.Torus(0, 0); c.Overlap = true }},
		{"mesh-rebalance", func(c *Config) { c.Partitioner = NewRebalancePartitioner(12, 2) }},
	}
}

func telemetryConfig(mutate func(*Config)) Config {
	cfg := DefaultConfig(4)
	mutate(&cfg)
	return cfg
}

// byStart sorts a span slice by start cycle (stable on ties).
func byStart(spans []telemetry.Span) []telemetry.Span {
	s := append([]telemetry.Span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	return s
}

// checkTiles asserts the spans partition [start, end) exactly: sorted,
// gap-free, overlap-free.
func checkTiles(t *testing.T, what string, spans []telemetry.Span, start, end sim.Cycle) {
	t.Helper()
	at := start
	for i, s := range byStart(spans) {
		if s.Start != at {
			t.Fatalf("%s: span %d (%v) starts at %d, want %d (gap or overlap)", what, i, s.Kind, s.Start, at)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%v) ends before it starts: [%d, %d)", what, i, s.Kind, s.Start, s.End)
		}
		at = s.End
	}
	if at != end {
		t.Fatalf("%s: spans end at %d, want %d", what, at, end)
	}
}

// The conservation invariants: per-resource spans never overlap, node
// busy+idle+stall tiles the compaction phase exactly, link occupancy
// windows match the Flight's store-and-forward duration for their bytes,
// DRAM bus windows sum to the channels' BusBusyCycles, the telemetry
// comm fraction reproduces the runtime's bit for bit — and collection
// itself never perturbs the simulated machine.
func TestTelemetryConservation(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)

	for _, tc := range telemetryCases() {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Simulate(reads, tr, telemetryConfig(tc.mutate))
			if err != nil {
				t.Fatal(err)
			}

			cfg := telemetryConfig(tc.mutate)
			cfg.Telemetry = telemetry.New()
			res, err := Simulate(reads, tr, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Collection must not perturb the model.
			if res.TotalCycles != base.TotalCycles || res.CommFraction != base.CommFraction {
				t.Fatalf("instrumented run differs: %d cycles / %v comm vs. %d / %v disabled",
					res.TotalCycles, res.CommFraction, base.TotalCycles, base.CommFraction)
			}
			if res.Compact != base.Compact {
				t.Fatalf("instrumented compact phase %+v != disabled %+v", res.Compact, base.Compact)
			}

			// The derived aggregate must reproduce the runtime's own
			// accounting exactly (not approximately).
			u := telemetry.Analyze(cfg.Telemetry)
			if u.Total != res.TotalCycles {
				t.Fatalf("telemetry horizon %d != TotalCycles %d", u.Total, res.TotalCycles)
			}
			if u.CommFraction != res.CommFraction {
				t.Fatalf("telemetry comm fraction %v != runtime %v", u.CommFraction, res.CommFraction)
			}

			net, err := cfg.Topo.Build(cfg.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			compactStart := res.Count.Total() + res.Construct.Total()
			iterSpans := 0
			for _, trk := range cfg.Telemetry.Tracks() {
				switch trk.Kind {
				case telemetry.TrackRuntime:
					// The phase schedule tiles the whole run.
					checkTiles(t, "runtime phases", trk.Spans, 0, res.TotalCycles)
				case telemetry.TrackNode:
					// Busy + idle + stall tiles the compaction phase, and
					// the busy share is exactly the node's recorded
					// per-iteration compute.
					checkTiles(t, trk.Name, trk.Spans, compactStart, res.TotalCycles)
					var busy sim.Cycle
					for _, s := range trk.Spans {
						if s.Kind == telemetry.SpanIter {
							busy += s.End - s.Start
							iterSpans++
						}
					}
					if want := res.PerNode[trk.ID].CompactCycles; busy != want {
						t.Fatalf("%s: iteration spans sum to %d cycles, want CompactCycles %d", trk.Name, busy, want)
					}
				case telemetry.TrackLink:
					// Each occupancy window is exactly the link's
					// store-and-forward duration for its bytes, reserved at
					// or after request time, and windows never overlap.
					var at sim.Cycle
					for i, s := range byStart(trk.Spans) {
						if s.Start < at {
							t.Fatalf("%s: span %d overlaps its predecessor", trk.Name, i)
						}
						at = s.End
						if want := sim.Cycle(float64(s.Arg1)/net.BytesPerCycle()) + 1; s.End-s.Start != want {
							t.Fatalf("%s: span %d is %d cycles for %d bytes, want Dur %d",
								trk.Name, i, s.End-s.Start, s.Arg1, want)
						}
						if s.Arg1 <= 0 || sim.Cycle(s.Arg2) > s.Start {
							t.Fatalf("%s: span %d has bytes %d, request %d after start %d",
								trk.Name, i, s.Arg1, s.Arg2, s.Start)
						}
					}
				case telemetry.TrackDRAM:
					// Bus windows never overlap and sum exactly to the
					// channel's BusBusyCycles.
					node := trk.ID / dram.Channels
					ch := trk.ID % dram.Channels
					var busy sim.Cycle
					var at sim.Cycle
					for i, s := range byStart(trk.Spans) {
						if s.Start < at {
							t.Fatalf("%s: span %d overlaps its predecessor", trk.Name, i)
						}
						at = s.End
						busy += s.End - s.Start
					}
					if want := sim.Cycle(res.NMP[node].Mem[ch].BusBusyCycles); busy != want {
						t.Fatalf("%s: bus windows sum to %d cycles, want BusBusyCycles %d", trk.Name, busy, want)
					}
				}
			}
			if iterSpans == 0 {
				t.Fatal("no iteration spans recorded")
			}

			// The critical path must attribute every iteration.
			cp := telemetry.CriticalPath(cfg.Telemetry)
			if len(cp) == 0 {
				t.Fatal("no critical path")
			}
			for i, e := range cp {
				if e.Iter != i {
					t.Fatalf("critical path entry %d covers iteration %d", i, e.Iter)
				}
				if e.Compute < 0 || e.Wait < 0 {
					t.Fatalf("critical path entry %d has negative attribution: %+v", i, e)
				}
			}
		})
	}
}

// Two identical instrumented runs must serialize to byte-identical
// Chrome-trace JSON: collection is deterministic under the runtime's
// parallel stepping.
func TestTelemetryDeterministicTrace(t *testing.T) {
	reads := testReads(t, 20_000)
	tr := testTrace(t, reads, 32, 3)

	for _, tc := range []telemetryCase{telemetryCases()[1], telemetryCases()[2]} {
		t.Run(tc.name, func(t *testing.T) {
			capture := func() []byte {
				cfg := telemetryConfig(tc.mutate)
				cfg.Telemetry = telemetry.New()
				if _, err := Simulate(reads, tr, cfg); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := cfg.Telemetry.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(capture(), capture()) {
				t.Fatal("two identical runs produced different traces")
			}
		})
	}
}
