package experiments

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"testing"

	"nmppak/internal/compact"
	"nmppak/internal/cpumodel"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/scaleout"
)

// Golden output digests captured from the pre-optimization implementation
// (comparator merge sort, container/heap event kernel, map-based terminal
// counts). The hot-path rewrites must reproduce these byte-identical
// counting results and cycle-exact simulation outcomes.
const (
	goldenKmerDistinct  = 59771
	goldenKmerHash      = uint64(0x9971a4eae85dc82c)
	goldenKmerExtracted = 828000
	goldenPrunedKinds   = 226610
	goldenPrunedMass    = 229864
	goldenGraphNodes    = 59804
	goldenTraceIters    = 18
	goldenNMPCycles     = 308182
	goldenCPUCycles     = 16955021
	// nmp.Simulate under StaticMapping, every iteration placed by
	// iteration 0's DIMM range table; captured while the trace still
	// stored the tables the simulators now build from its nodes.
	goldenStaticNMPCycles = 802007
	// Scale-out totals under the pre-refactor flat LinkConfig model; the
	// topology-aware FullMesh must reproduce them cycle for cycle, in
	// both replay disciplines (captured immediately before the
	// internal/topo refactor).
	goldenScale1Total   = 13766386
	goldenScale4Total   = 3894413
	goldenScale4Overlap = 3780697
	goldenScale8Total   = 2110251
	goldenScale8Overlap = 1941983
	// The quick trace's content fingerprint and the FNV-64a of the 4-node
	// default-config checkpoint blob taken before iteration 9 (20,453
	// bytes), captured before the trace digest moved onto trace.Trace.
	// They pin blob bytes across commits, not only across capture modes.
	goldenTraceDigest = uint64(0xfc97c72f6ef76433)
	goldenBlobHash    = uint64(0x12b3d31c7266b511)
	goldenBlobLen     = 20453
	goldenBlobIter    = 9
	// The same capture under NewRebalancePartitioner(12, 1): its blob
	// carries the migrated ownership table, and its config digest the
	// partitioner's "@1.05" trigger text. Captured before the trigger and
	// the checkpoint I/O rate became constants.
	goldenRebalanceBlobHash = uint64(0x8fd7a9ec3d5d771d)
	goldenRebalanceBlobLen  = 31117
)

// TestGoldenEquivalence locks the full pipeline — counting, graph
// construction, trace capture, NMP replay and scale-out replay — to the
// exact outputs of the pre-optimization implementation on the quick
// workload. Any deviation in sort order handling, event scheduling order
// or pruning accounting shows up here as a digest or cycle mismatch.
func TestGoldenEquivalence(t *testing.T) {
	c, err := NewContext(QuickWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmer.Count(c.Reads, kmer.Config{K: 32, Workers: 4, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, kc := range res.Kmers {
		fmt.Fprintf(h, "%d:%d;", uint64(kc.Km), kc.Count)
	}
	if len(res.Kmers) != goldenKmerDistinct {
		t.Errorf("distinct kmers = %d, golden %d", len(res.Kmers), goldenKmerDistinct)
	}
	if got := h.Sum64(); got != goldenKmerHash {
		t.Errorf("kmer stream hash = %#x, golden %#x", got, goldenKmerHash)
	}
	if res.TotalExtracted != goldenKmerExtracted {
		t.Errorf("TotalExtracted = %d, golden %d", res.TotalExtracted, goldenKmerExtracted)
	}
	if res.PrunedKinds != goldenPrunedKinds || res.PrunedMass != goldenPrunedMass {
		t.Errorf("pruned = %d/%d, golden %d/%d", res.PrunedKinds, res.PrunedMass, goldenPrunedKinds, goldenPrunedMass)
	}

	g, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != goldenGraphNodes {
		t.Errorf("graph nodes = %d, golden %d", g.Len(), goldenGraphNodes)
	}

	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) != goldenTraceIters {
		t.Errorf("trace iterations = %d, golden %d", len(tr.Iterations), goldenTraceIters)
	}
	nres, err := nmp.Simulate(tr, nmp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nres.Cycles != goldenNMPCycles {
		t.Errorf("nmp cycles = %d, golden %d", nres.Cycles, goldenNMPCycles)
	}
	static := nmp.DefaultConfig()
	static.StaticMapping = true
	sres, err := nmp.Simulate(tr, static)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Cycles != goldenStaticNMPCycles {
		t.Errorf("nmp cycles under StaticMapping = %d, golden %d", sres.Cycles, goldenStaticNMPCycles)
	}
	cres, err := cpumodel.Simulate(tr, cpumodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cres.Cycles != goldenCPUCycles {
		t.Errorf("cpumodel cycles = %d, golden %d", cres.Cycles, goldenCPUCycles)
	}

	for _, tc := range []struct {
		nodes   int
		overlap bool
		want    int64
	}{
		{1, false, goldenScale1Total},
		{1, true, goldenScale1Total},
		{4, false, goldenScale4Total},
		{4, true, goldenScale4Overlap},
		{8, false, goldenScale8Total},
		{8, true, goldenScale8Overlap},
	} {
		scfg := scaleout.DefaultConfig(tc.nodes)
		scfg.Workers = 4
		scfg.Overlap = tc.overlap
		sres, err := scaleout.Simulate(c.Reads, tr, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if int64(sres.TotalCycles) != tc.want {
			t.Errorf("scaleout n=%d overlap=%v total cycles = %d, golden %d",
				tc.nodes, tc.overlap, sres.TotalCycles, tc.want)
		}
		if sres.Topology != "fullmesh" {
			t.Errorf("default topology = %q, want fullmesh", sres.Topology)
		}
	}

	if d := tr.Digest(); d != goldenTraceDigest {
		t.Errorf("trace digest = %#x, golden %#x", d, goldenTraceDigest)
	}
	blob, err := scaleout.Checkpoint(c.Reads, tr, scaleout.DefaultConfig(4), goldenBlobIter)
	if err != nil {
		t.Fatal(err)
	}
	checkBlob := func(how string, blob []byte, wantLen int, wantHash uint64) {
		t.Helper()
		h := fnv.New64a()
		h.Write(blob)
		if len(blob) != wantLen || h.Sum64() != wantHash {
			t.Errorf("%s blob = %d bytes, hash %#x; golden %d bytes, %#x",
				how, len(blob), h.Sum64(), wantLen, wantHash)
		}
	}
	checkBlob("one-shot checkpoint", blob, goldenBlobLen, goldenBlobHash)
	s, err := scaleout.NewSession(c.Reads, tr, scaleout.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Step(goldenBlobIter); got != goldenBlobIter {
		t.Fatalf("session stepped %d iterations, want %d", got, goldenBlobIter)
	}
	sblob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	checkBlob("session checkpoint", sblob, goldenBlobLen, goldenBlobHash)

	rcfg := scaleout.DefaultConfig(4)
	rcfg.Partitioner = scaleout.NewRebalancePartitioner(12, 1)
	rblob, err := scaleout.Checkpoint(c.Reads, tr, rcfg, goldenBlobIter)
	if err != nil {
		t.Fatal(err)
	}
	checkBlob("rebalancing checkpoint", rblob, goldenRebalanceBlobLen, goldenRebalanceBlobHash)
}

// goldenContigs pins assemble.Run's exact output on the quick workload:
// the FNV-64a of its contigs in emission order, the number of compaction
// iterations over every run (per batch, then the final merged pass) and
// the summed TransferNodes. Batches > 1 reaches Graph.Merge and the final
// compaction, which the trace capture never runs. Captured before the
// allocation-light compaction rewrite.
var goldenContigs = []struct {
	batches   int
	hash      uint64
	contigs   int
	iters     int
	transfers int
}{
	{1, 0x202cac58ecfb9bf1, 34, 32, 119121},
	{2, 0xf1f61f4b306b4bc5, 1190, 51, 201200},
	{4, 0xca03dc8e7d1e02ad, 3561, 90, 198516},
}

func TestGoldenContigs(t *testing.T) {
	c, err := NewContext(QuickWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range goldenContigs {
		out, err := c.Assemble(want.batches, compact.FlowPipelined)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, q := range out.Contigs {
			fmt.Fprintf(h, "%s;", q)
		}
		transfers := 0
		for _, st := range out.CompactStats {
			transfers += st.Transfers
		}
		if got := h.Sum64(); got != want.hash || len(out.Contigs) != want.contigs ||
			len(out.CompactStats) != want.iters || transfers != want.transfers {
			t.Errorf("batches=%d: contigs hash %#x (%d contigs), %d iterations, %d transfers; golden %#x (%d), %d, %d",
				want.batches, got, len(out.Contigs), len(out.CompactStats), transfers,
				want.hash, want.contigs, want.iters, want.transfers)
		}
	}
}

// gobHistoryEnv marks the child process of TestBlobIndependentOfGobHistory.
const gobHistoryEnv = "NMPPAK_TEST_GOB_HISTORY_CHILD"

// A checkpoint blob must not depend on what the process gob-encoded
// before: gob numbers types from a process-wide counter, so a blob written
// through a fresh gob.Encoder changed length and hash after one unrelated
// encode. The test re-executes its own binary; the child gob-encodes an
// unrelated type, then writes the golden 4-node blob and checks its
// length and hash.
func TestBlobIndependentOfGobHistory(t *testing.T) {
	if os.Getenv(gobHistoryEnv) != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBlobIndependentOfGobHistory$", "-test.count=1")
		cmd.Env = append(os.Environ(), gobHistoryEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	type unrelated struct {
		Name  string
		Sizes []int
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{"first", []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewContext(QuickWorkload())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := scaleout.Checkpoint(c.Reads, tr, scaleout.DefaultConfig(4), goldenBlobIter)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != goldenBlobLen || h.Sum64() != goldenBlobHash {
		t.Fatalf("after an unrelated gob encode the blob is %d bytes, hash %#x; golden %d bytes, %#x",
			len(blob), h.Sum64(), goldenBlobLen, goldenBlobHash)
	}
}
