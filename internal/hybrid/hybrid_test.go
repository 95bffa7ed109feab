package hybrid

import (
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/trace"
)

// synthTrace builds a one-iteration trace with a controlled size mix.
func synthTrace(sizes []int) *trace.Trace {
	it := trace.Iteration{}
	for i, s := range sizes {
		d2 := 16
		it.Nodes = append(it.Nodes, trace.NodeOp{
			Key: dna.Kmer(i), D1: int32(s - d2), D2: int32(d2), Exts: 2, Wires: 1,
		})
	}
	it.Stats = compact.IterStats{LiveNodes: len(sizes)}
	return &trace.Trace{K: 32, Iterations: []trace.Iteration{it}}
}

func TestSplitThreshold(t *testing.T) {
	tr := synthTrace([]int{100, 200, 500, 1500, 3000, 100, 100})
	s := Split(tr, 1024)
	if s.NodesCPU != 2 || s.NodesNMP != 5 {
		t.Fatalf("split %+v", s)
	}
	if s.BytesCPU != 4500 {
		t.Fatalf("cpu bytes %d", s.BytesCPU)
	}
	if s.FracCPUNodes <= 0 || s.FracCPUBytes <= s.FracCPUNodes {
		t.Fatalf("fractions %+v (big nodes carry more bytes than population share)", s)
	}
}

func TestSplitDisabled(t *testing.T) {
	tr := synthTrace([]int{100, 5000})
	s := Split(tr, 0)
	if s.NodesCPU != 0 || s.NodesNMP != 2 {
		t.Fatalf("split with disabled threshold: %+v", s)
	}
}

func TestOverlapModel(t *testing.T) {
	tr := synthTrace([]int{100, 100, 100, 100, 100, 100, 100, 100, 100, 2000})
	s := Split(tr, 1024)
	r := CPUOverNMP(s)
	if r <= 0 {
		t.Fatalf("ratio %v", r)
	}
	// All offloaded -> NMP side empty -> ratio defined as 0.
	all := Split(tr, 10)
	if got := CPUOverNMP(all); got == 0 && all.BytesNMP != 0 {
		t.Fatal("inconsistent overlap")
	}
}
