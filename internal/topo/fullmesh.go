package topo

import "nmppak/internal/sim"

// fullMesh joins every node pair with a dedicated wire: the only
// contended resources are the per-node serializing egress and ingress
// ports, so a message's route is [egress(src), ingress(dst)] with one
// latency transition between them. This reproduces the pre-refactor
// LinkConfig occupancy discipline exactly.
//
// Link IDs: egress(i) = i, ingress(i) = n + i.
type fullMesh struct {
	linkSpec
}

func (m *fullMesh) Name() string { return "fullmesh" }

func (m *fullMesh) AppendRoute(path []int, src, dst int) []int {
	return append(path, src, m.n+dst)
}

// BarrierCycles keeps the pre-refactor formula: ceil(log2 n) message hops
// each way, one wire crossing per hop.
func (m *fullMesh) BarrierCycles() sim.Cycle { return m.treeBarrier(1) }
