// Package hybrid analyzes the CPU-NMP work split of §4.3: which MacroNodes
// exceed the PE-buffer-friendly size threshold, how much work each side
// carries per iteration, and whether the CPU side hides under the NMP side
// (the paper measures offloaded >1 KB work at 49.8% of the NMP compute
// time, i.e. fully overlapped).
//
// The timing itself is simulated by internal/nmp (which implements the
// offload and the per-iteration lockstep); this package provides the
// analytical model the runtime uses to pick the threshold, and the
// population statistics for the §4.3 and Fig. 7/8 discussions.
package hybrid

import "nmppak/internal/trace"

// SplitStats summarizes the node population split at a size threshold.
type SplitStats struct {
	ThresholdBytes int
	NodesNMP       int64
	NodesCPU       int64
	BytesNMP       int64
	BytesCPU       int64
	// FracCPU* are population fractions.
	FracCPUNodes float64
	FracCPUBytes float64
}

// Split scans a whole trace and splits node visits at the threshold.
func Split(tr *trace.Trace, thresholdBytes int) SplitStats {
	s := SplitStats{ThresholdBytes: thresholdBytes}
	for i := range tr.Iterations {
		for j := range tr.Iterations[i].Nodes {
			n := &tr.Iterations[i].Nodes[j]
			size := int64(n.D1 + n.D2)
			if thresholdBytes > 0 && size > int64(thresholdBytes) {
				s.NodesCPU++
				s.BytesCPU += size
			} else {
				s.NodesNMP++
				s.BytesNMP += size
			}
		}
	}
	if t := s.NodesNMP + s.NodesCPU; t > 0 {
		s.FracCPUNodes = float64(s.NodesCPU) / float64(t)
	}
	if t := s.BytesNMP + s.BytesCPU; t > 0 {
		s.FracCPUBytes = float64(s.BytesCPU) / float64(t)
	}
	return s
}

// The overlap model's service rates, in abstract cycles per byte and
// parallelism: NMP throughput scales with PEs × channels at near-memory
// bandwidth, here §4.3's cost-effective point of 16 PEs on each of the 8
// channels (nmp.DefaultConfig has 32), and the 64-thread CPU pays ~4x per
// byte for far-memory access and software overheads. Typed, so
// CPUOverNMP rounds as with float64 fields.
const (
	nmpCyclesPerByte float64 = 0.25
	cpuCyclesPerByte float64 = 1.0
	nmpParallelism   float64 = 16 * 8
	cpuParallelism   float64 = 64
)

// CPUOverNMP estimates a split's CPU-side service demand as a fraction of
// its NMP-side demand, the §4.3 analysis that sizes the threshold: below 1
// the CPU work hides completely under the NMP work.
func CPUOverNMP(s SplitStats) float64 {
	nmp := float64(s.BytesNMP) * nmpCyclesPerByte / nmpParallelism
	cpu := float64(s.BytesCPU) * cpuCyclesPerByte / cpuParallelism
	if nmp == 0 {
		return 0
	}
	return cpu / nmp
}
