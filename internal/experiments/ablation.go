package experiments

import (
	"fmt"

	"nmppak/internal/nmp"
	"nmppak/internal/report"
)

// Ablation studies design choices of the NMP model, beyond the paper's own
// sensitivity analysis (Fig. 15):
//
//   - static vs. refreshed DIMM mapping: the paper's mapping table is a
//     static ascending-key partition; because compaction removes the
//     lexicographically largest keys first, a table frozen at iteration 0
//     funnels the surviving population into the low-key DIMMs, and the
//     per-iteration refresh (free, since compaction reallocates nodes
//     every iteration anyway) restores balance;
//   - hybrid offload on/off: what the >threshold nodes cost when forced
//     through the PEs (streamed through the MacroNode buffer) instead of
//     the host CPU;
//   - TransferNode scratchpad sizing: occupancy and overflow pressure at
//     the paper's 1 KB versus smaller scratchpads.
func Ablation(c *Context) (*Report, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	tab := &report.Table{
		Title:   "Design-choice ablations (cycles, lower is better)",
		Headers: []string{"configuration", "cycles", "vs NMP-PaK", "note"},
	}
	base, err := nmp.Simulate(tr, nmp.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rel := func(r *nmp.Result) string {
		return fmt.Sprintf("%.2fx", float64(r.Cycles)/float64(base.Cycles))
	}
	tab.AddRow("NMP-PaK (default)", base.Cycles, "1.00x", "")

	scfg := nmp.DefaultConfig()
	scfg.StaticMapping = true
	static, err := nmp.Simulate(tr, scfg)
	if err != nil {
		return nil, err
	}
	tab.AddRow("static DIMM mapping", static.Cycles, rel(static), "high-key DIMMs drain; survivors pile into DIMM 0")

	hcfg := nmp.DefaultConfig()
	hcfg.HybridThresholdBytes = 0
	noHybrid, err := nmp.Simulate(tr, hcfg)
	if err != nil {
		return nil, err
	}
	tab.AddRow("no CPU offload", noHybrid.Cycles, rel(noHybrid), "oversized nodes streamed through PEs")

	qcfg := nmp.DefaultConfig()
	qcfg.PELoadQueueDepth = 1
	qcfg.P3QueueDepth = 1
	shallow, err := nmp.Simulate(tr, qcfg)
	if err != nil {
		return nil, err
	}
	tab.AddRow("no prefetch buffers", shallow.Cycles, rel(shallow), "single outstanding load/update per PE")

	bcfg := nmp.DefaultConfig()
	bcfg.BridgeBytesPerCy /= 4
	slowBridge, err := nmp.Simulate(tr, bcfg)
	if err != nil {
		return nil, err
	}
	tab.AddRow("bridge at 6.25 GB/s", slowBridge.Cycles, rel(slowBridge), "quarter-rate inter-DIMM links")

	text := tab.String() + fmt.Sprintf(
		"scratchpad pressure at default 1KB: peak %d B, overflow events %d\n",
		base.ScratchPeakBytes, base.ScratchOverflows)
	return &Report{
		ID: "ablation", Title: "Design-choice ablations", Text: text,
		Measured: map[string]float64{
			"static_mapping_slowdown": float64(static.Cycles) / float64(base.Cycles),
			"no_hybrid_slowdown":      float64(noHybrid.Cycles) / float64(base.Cycles),
			"no_prefetch_slowdown":    float64(shallow.Cycles) / float64(base.Cycles),
			"slow_bridge_slowdown":    float64(slowBridge.Cycles) / float64(base.Cycles),
		},
	}, nil
}
