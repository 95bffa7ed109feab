package compact

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
)

func graphFromStrings(t testing.TB, k int, seqs ...string) *pakgraph.Graph {
	t.Helper()
	var reads []readsim.Read
	for _, s := range seqs {
		reads = append(reads, readsim.Read{Seq: dna.MustParseSeq(s)})
	}
	res, err := kmer.Count(reads, kmer.Config{K: k})
	if err != nil {
		t.Fatal(err)
	}
	g, err := pakgraph.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randDNA(r *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(dna.Alphabet[r.Intn(4)])
	}
	return sb.String()
}

// spell reconstructs the single contig of a pure path graph by walking from
// its terminal prefix; it fails the test if the graph is not a single path.
func spell(t testing.TB, g *pakgraph.Graph, completed []dna.Seq) string {
	t.Helper()
	if len(completed) == 1 && g.Len() == 0 {
		return completed[0].String()
	}
	if len(completed) != 0 {
		t.Fatalf("unexpected completed contigs: %d (graph len %d)", len(completed), g.Len())
	}
	k1 := g.K1()
	// Find the node holding the terminal prefix.
	var start *pakgraph.MacroNode
	for i := range g.Nodes {
		for _, e := range g.Nodes[i].Prefixes {
			if e.Terminal {
				if start != nil {
					t.Fatal("multiple terminal prefixes in path graph")
				}
				start = &g.Nodes[i]
			}
		}
	}
	if start == nil {
		t.Fatal("no terminal prefix found")
	}
	n := start
	var w pakgraph.Wire
	found := false
	for _, wire := range n.Wires {
		if n.Prefixes[wire.P].Terminal {
			w, found = wire, true
			break
		}
	}
	if !found {
		t.Fatal("terminal prefix not wired")
	}
	contig := n.Prefixes[w.P].Seq.Concat(n.Key.Seq(k1))
	for steps := 0; steps < 10_000_000; steps++ {
		s := n.Suffixes[w.S]
		contig = contig.Concat(s.Seq)
		if s.Terminal {
			return contig.String()
		}
		next := g.Node(dna.NeighborViaSuffix(n.Key, k1, s.Seq))
		if next == nil {
			t.Fatal("dangling suffix during spell")
		}
		arr := n.Key.Seq(k1).Concat(s.Seq).Slice(0, s.Seq.Len())
		found = false
		for _, wire := range next.Wires {
			if !next.Prefixes[wire.P].Terminal && next.Prefixes[wire.P].Seq.Equal(arr) {
				w, found = wire, true
				break
			}
		}
		if !found {
			t.Fatal("lost the path during spell")
		}
		n = next
	}
	t.Fatal("spell did not terminate")
	return ""
}

// TestCompactionPreservesSingleReadContig is the core correctness test: a
// graph built from one read is a simple path; compacting it to any depth
// must still spell exactly that read.
func TestCompactionPreservesSingleReadContig(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		k := 4 + r.Intn(10)
		n := k + 1 + r.Intn(300)
		s := randDNA(r, n)
		g := graphFromStrings(t, k, s)
		// Repeated (k-1)-mers make the graph non-path; skip those draws.
		if g.Len() != n-k+2 {
			continue
		}
		for _, flow := range []Flow{FlowPipelined, FlowSequential} {
			gg := graphFromStrings(t, k, s)
			res, err := Run(gg, Options{Flow: flow})
			if err != nil {
				t.Fatal(err)
			}
			if err := gg.Validate(); err != nil {
				t.Fatalf("k=%d seq=%s flow=%v: %v\n", k, s, flow, err)
			}
			if got := spell(t, gg, res.Completed); got != s {
				t.Fatalf("k=%d flow=%v: spelled %q want %q", k, flow, got, s)
			}
			if res.Iterations < 1 {
				t.Fatal("expected at least one iteration")
			}
		}
	}
}

// TestCompactionShrinksPathToFixedPoint checks that a long path compacts
// geometrically and reaches a fixed point with no invalidation targets.
func TestCompactionShrinksPathToFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := randDNA(r, 4000)
	g := graphFromStrings(t, 8, s)
	before := g.Len()
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() >= before/4 {
		t.Fatalf("poor compaction: %d -> %d", before, g.Len())
	}
	// Fixed point: no node is an invalidation target anymore.
	for i := range g.Nodes {
		if g.Nodes[i].IsInvalidationTarget(g.K1()) {
			t.Fatal("fixed point not reached")
		}
	}
	last := res.Stats[len(res.Stats)-1]
	if last.Invalidated != 0 {
		t.Fatal("last iteration should invalidate nothing")
	}
}

// TestNoAdjacentInvalidations verifies the paper's independence property:
// an invalidated node is strictly larger than its neighbors, so no two
// adjacent nodes are removed in the same iteration. We check it on the
// iteration-start state via a custom observer.
func TestNoAdjacentInvalidations(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := graphFromStrings(t, 6, randDNA(r, 800), randDNA(r, 800))
	k1 := g.K1()

	obs := &adjacencyChecker{t: t, g: g, k1: k1}
	if _, err := Run(g, Options{Observer: obs, MaxIters: 3}); err != nil {
		t.Fatal(err)
	}
	if obs.iters == 0 {
		t.Fatal("observer saw no iterations")
	}
}

type adjacencyChecker struct {
	t     *testing.T
	g     *pakgraph.Graph
	k1    int
	inval map[dna.Kmer]bool
	iters int
}

func (a *adjacencyChecker) BeginIteration(iter, live int) {
	a.inval = make(map[dna.Kmer]bool)
	a.iters++
}
func (a *adjacencyChecker) ScanNode(key dna.Kmer, d1, d2, exts, wires int, invalidated bool) {
	if invalidated {
		a.inval[key] = true
	}
}
func (a *adjacencyChecker) Transfer(src, dst dna.Kmer, tnBytes int, suffixSide bool) {
	if a.inval[dst] {
		a.t.Errorf("transfer targets invalidated node %v", dst)
	}
}
func (a *adjacencyChecker) UpdateNode(key dna.Kmer, r, w int) {
	if a.inval[key] {
		a.t.Errorf("update targets invalidated node %v", key)
	}
}
func (a *adjacencyChecker) EndIteration(IterStats) {}

// TestMissingTargetIsDropped: updates whose target key is not in the
// graph (a dangling edge, possible on merged noisy graphs) share one update
// slot, get one UpdateNode with zero bytes and count as DroppedTN, while
// the other targets are applied as usual.
func TestMissingTargetIsDropped(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	s := randDNA(r, 400)
	// Pick a node that iteration 0 sends two or more TransferNodes to.
	probe := &updateRecorder{}
	if _, err := Run(graphFromStrings(t, 9, s), Options{MaxIters: 1, Observer: probe}); err != nil {
		t.Fatal(err)
	}
	var gone dna.Kmer
	want := 0
	for dst, n := range probe.transfers {
		if n >= 2 && (want == 0 || dst < gone) {
			gone, want = dst, n
		}
	}
	if want == 0 {
		t.Fatal("no node receives two transfers in iteration 0")
	}

	g := graphFromStrings(t, 9, s)
	g.Nodes = slices.DeleteFunc(g.Nodes, func(n pakgraph.MacroNode) bool { return n.Key == gone })
	rec := &updateRecorder{}
	res, err := Run(g, Options{MaxIters: 1, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats[0]; st.DroppedTN != want || st.Transfers == want {
		t.Fatalf("dropped %d of %d transfers, want %d", st.DroppedTN, st.Transfers, want)
	}
	seen := 0
	for _, u := range rec.updates {
		if u.key == gone {
			seen++
			if u.r != 0 || u.w != 0 {
				t.Errorf("missing target reported %d/%d bytes, want 0/0", u.r, u.w)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("missing target reported %d times, want once", seen)
	}
}

type updateRecorder struct {
	transfers map[dna.Kmer]int
	updates   []struct {
		key  dna.Kmer
		r, w int
	}
}

func (u *updateRecorder) BeginIteration(iter, live int)                            {}
func (u *updateRecorder) ScanNode(key dna.Kmer, d1, d2, exts, wires int, inv bool) {}
func (u *updateRecorder) Transfer(src, dst dna.Kmer, tnBytes int, suffixSide bool) {
	if u.transfers == nil {
		u.transfers = make(map[dna.Kmer]int)
	}
	u.transfers[dst]++
}
func (u *updateRecorder) EndIteration(IterStats) {}
func (u *updateRecorder) UpdateNode(key dna.Kmer, r, w int) {
	u.updates = append(u.updates, struct {
		key  dna.Kmer
		r, w int
	}{key, r, w})
}

// TestTerminalConservation: compaction never creates or destroys sequence
// start/end markers (terminal counts), except for both-terminal wires that
// leave the graph as completed contigs.
func TestTerminalConservation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		var seqs []string
		for i := 0; i < 5; i++ {
			seqs = append(seqs, randDNA(r, 200+r.Intn(400)))
		}
		g := graphFromStrings(t, 7, seqs...)
		tp0, ts0 := terminals(g)
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tp1, ts1 := terminals(g)
		done := uint64(len(res.Completed))
		if tp1+done != tp0 || ts1+done != ts0 {
			t.Fatalf("terminals not conserved: (%d,%d) -> (%d,%d) with %d completed",
				tp0, ts0, tp1, ts1, done)
		}
	}
}

// TestFlowsProduceIdenticalGraphs: the two engine flows must be
// semantically identical; only traffic accounting differs.
func TestFlowsProduceIdenticalGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	seqs := []string{randDNA(r, 1000), randDNA(r, 700), randDNA(r, 500)}
	gA := graphFromStrings(t, 8, seqs...)
	gB := graphFromStrings(t, 8, seqs...)
	resA, err := Run(gA, Options{Flow: FlowPipelined, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(gB, Options{Flow: FlowSequential, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Iterations != resB.Iterations {
		t.Fatalf("iterations differ: %d vs %d", resA.Iterations, resB.Iterations)
	}
	if gA.Len() != gB.Len() {
		t.Fatalf("final sizes differ: %d vs %d", gA.Len(), gB.Len())
	}
	for i := range gA.Nodes {
		na, key := &gA.Nodes[i], gA.Nodes[i].Key
		nb := gB.Node(key)
		if nb == nil {
			t.Fatalf("node %v missing in sequential result", key)
		}
		if na.SizeBytes() != nb.SizeBytes() || len(na.Wires) != len(nb.Wires) {
			t.Fatalf("node %v differs between flows", key)
		}
	}
	if len(resA.Completed) != len(resB.Completed) {
		t.Fatal("completed contigs differ")
	}
}

// TestSequentialFlowHasMoreTraffic: the Fig. 14 premise — the original
// stage-sequential flow moves strictly more bytes than the pipelined flow,
// with roughly 2x reads and 4x writes.
func TestSequentialFlowHasMoreTraffic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	seqs := []string{randDNA(r, 3000), randDNA(r, 3000)}
	gA := graphFromStrings(t, 10, seqs...)
	gB := graphFromStrings(t, 10, seqs...)
	resA, _ := Run(gA, Options{Flow: FlowPipelined})
	resB, _ := Run(gB, Options{Flow: FlowSequential})
	var rA, wA, rB, wB int64
	for _, st := range resA.Stats {
		rA += st.ReadBytes
		wA += st.WriteBytes
	}
	for _, st := range resB.Stats {
		rB += st.ReadBytes
		wB += st.WriteBytes
	}
	if rB <= rA || wB <= wA {
		t.Fatalf("sequential flow not heavier: reads %d vs %d, writes %d vs %d", rB, rA, wB, wA)
	}
	readRatio := float64(rB) / float64(rA)
	writeRatio := float64(wB) / float64(wA)
	if readRatio < 1.5 || readRatio > 4 {
		t.Errorf("read ratio %.2f outside plausible range [1.5,4] (paper ~2)", readRatio)
	}
	if writeRatio < 2 || writeRatio > 10 {
		t.Errorf("write ratio %.2f outside plausible range [2,10] (paper ~4)", writeRatio)
	}
}

// TestNoDroppedTransfers: on structurally consistent graphs every
// TransferNode finds its match extension.
func TestNoDroppedTransfers(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		g := graphFromStrings(t, 6, randDNA(r, 1500))
		res, err := Run(g, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range res.Stats {
			if st.DroppedTN != 0 {
				t.Fatalf("iteration %d dropped %d transfers", st.Iter, st.DroppedTN)
			}
		}
	}
}

// TestValidityThroughEveryIteration validates graph invariants after each
// iteration via MaxIters stepping.
func TestValidityThroughEveryIteration(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	s := randDNA(r, 1200)
	for iters := 1; iters <= 6; iters++ {
		g := graphFromStrings(t, 7, s)
		if _, err := Run(g, Options{MaxIters: iters}); err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("after %d iterations: %v", iters, err)
		}
	}
}

// TestThresholdStopsEarly verifies the paper's termination condition
// ("iterate until #MN < threshold").
func TestThresholdStopsEarly(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	s := randDNA(r, 2000)
	g := graphFromStrings(t, 8, s)
	n0 := g.Len()
	res, err := Run(g, Options{Threshold: n0 / 2})
	if err != nil {
		t.Fatal(err)
	}
	gFull := graphFromStrings(t, 8, s)
	resFull, _ := Run(gFull, Options{})
	if res.Iterations >= resFull.Iterations {
		t.Fatalf("threshold did not stop early: %d vs %d iterations", res.Iterations, resFull.Iterations)
	}
	if g.Len() >= n0 {
		t.Fatal("no compaction happened")
	}
}

// TestCompactionWithBranches: graphs with shared k-mers across reads
// (branching) must stay valid through compaction.
func TestCompactionWithBranches(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	core := randDNA(r, 120)
	// Three reads sharing a common core -> branch in, branch out.
	seqs := []string{
		randDNA(r, 60) + core + randDNA(r, 60),
		randDNA(r, 60) + core + randDNA(r, 60),
		core,
	}
	g := graphFromStrings(t, 6, seqs...)
	if _, err := Run(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHomopolymerSelfLoopSurvives: self-loop nodes are never invalidated
// and must not corrupt the run.
func TestHomopolymerSelfLoopSurvives(t *testing.T) {
	g := graphFromStrings(t, 4, "AAAAAAAAAACGT")
	if _, err := Run(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Node(dna.MustParseKmer("AAA")) == nil {
		t.Fatal("self-loop node AAA must survive")
	}
}

// TestRunRejectsInvalidGraph: a nil graph, a k outside [2, dna.MaxK] and
// a Nodes slice that is not in strictly ascending key order are errors,
// not a panic or a compaction over truncated keys or misrouted updates.
func TestRunRejectsInvalidGraph(t *testing.T) {
	unordered := graphFromStrings(t, 5, "ACGTTGCAACGGTCA")
	unordered.Nodes[0], unordered.Nodes[1] = unordered.Nodes[1], unordered.Nodes[0]
	duplicate := graphFromStrings(t, 5, "ACGTTGCAACGGTCA")
	duplicate.Nodes = slices.Insert(duplicate.Nodes, 2, duplicate.Nodes[2])
	for _, tc := range []struct {
		name string
		g    *pakgraph.Graph
		ok   bool
	}{
		{"nil", nil, false},
		{"k=1", &pakgraph.Graph{K: 1}, false},
		{"k=2", &pakgraph.Graph{K: 2}, true},
		{"k=32", &pakgraph.Graph{K: dna.MaxK}, true},
		{"k=33", &pakgraph.Graph{K: 33}, false},
		{"k=64", &pakgraph.Graph{K: 64}, false},
		{"unordered", unordered, false},
		{"duplicate", duplicate, false},
	} {
		if _, err := Run(tc.g, Options{}); (err == nil) != tc.ok {
			t.Errorf("%s: Run error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestExtractPaperExample(t *testing.T) {
	// Fig. 4(c)-(d): invalidating node GTCA with prefix A wired to suffix T
	// (count 6) sends the predecessor AGTC an update replacing its suffix
	// "A" with "AT" at count 6.
	v := &pakgraph.MacroNode{Key: dna.MustParseKmer("GTCA")}
	v.Prefixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("A"), Weight: 6}}
	v.Suffixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("T"), Weight: 6}}
	v.Rewire()
	updates, contigs := Extract(nil, nil, v, 4)
	if len(contigs) != 0 {
		t.Fatal("no contigs expected")
	}
	if len(updates) != 2 {
		t.Fatalf("updates = %d want 2", len(updates))
	}
	var toPred *Update
	for i := range updates {
		if updates[i].SuffixSide {
			toPred = &updates[i]
		}
	}
	if toPred == nil {
		t.Fatal("no suffix-side update")
	}
	if got := toPred.Target.StringK(4); got != "AGTC" {
		t.Fatalf("pred target = %s want AGTC", got)
	}
	if toPred.Match.String() != "A" || toPred.NewSeq.String() != "AT" || toPred.Weight != 6 {
		t.Fatalf("pred update = match %q new %q weight %d", toPred.Match, toPred.NewSeq, toPred.Weight)
	}
	// Successor TCAT gets prefix "G" -> "AG".
	var toSucc *Update
	for i := range updates {
		if !updates[i].SuffixSide {
			toSucc = &updates[i]
		}
	}
	if got := toSucc.Target.StringK(4); got != "TCAT" {
		t.Fatalf("succ target = %s want TCAT", got)
	}
	if toSucc.Match.String() != "G" || toSucc.NewSeq.String() != "AG" || toSucc.Weight != 6 {
		t.Fatalf("succ update = match %q new %q weight %d", toSucc.Match, toSucc.NewSeq, toSucc.Weight)
	}
}

func TestApplySplitsSharedPrefix(t *testing.T) {
	// Node u = AGTC whose suffix "A" carries two paths (count 2) pointing
	// at GTCA; two updates split it into "AT" and "AG", one path each.
	u := &pakgraph.MacroNode{Key: dna.MustParseKmer("AGTC")}
	u.Prefixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("T"), Count: 2, Weight: 10}}
	u.Suffixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("A"), Count: 2, Weight: 10}}
	u.Wires = []pakgraph.Wire{{P: 0, S: 0, Count: 2}}
	ups := []Update{
		{Target: u.Key, SuffixSide: true, Match: dna.MustParseSeq("A"), NewSeq: dna.MustParseSeq("AT"), Count: 1, Weight: 6},
		{Target: u.Key, SuffixSide: true, Match: dna.MustParseSeq("A"), NewSeq: dna.MustParseSeq("AG"), Count: 1, Weight: 4},
	}
	if dropped := Apply(u, ups); dropped != 0 {
		t.Fatalf("dropped %d", dropped)
	}
	if len(u.Suffixes) != 2 {
		t.Fatalf("suffixes = %+v", u.Suffixes)
	}
	if u.TotalSuffixCount() != 2 || u.TotalPrefixCount() != 2 {
		t.Fatal("counts not conserved")
	}
	if len(u.Wires) != 2 {
		t.Fatalf("wires = %+v", u.Wires)
	}
}

func TestApplyMissingMatchIsDropped(t *testing.T) {
	u := &pakgraph.MacroNode{Key: dna.MustParseKmer("AGTC")}
	u.Prefixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("T"), Weight: 1}}
	u.Suffixes = []pakgraph.Ext{{Seq: dna.MustParseSeq("A"), Weight: 1}}
	u.Rewire()
	ups := []Update{{Target: u.Key, SuffixSide: true, Match: dna.MustParseSeq("G"), NewSeq: dna.MustParseSeq("GT"), Count: 1}}
	if dropped := Apply(u, ups); dropped != 1 {
		t.Fatalf("dropped = %d want 1", dropped)
	}
}

// terminals sums terminal counts graph-wide; compaction must conserve
// them, less one of each per completed contig.
func terminals(g *pakgraph.Graph) (prefix, suffix uint64) {
	for i := range g.Nodes {
		p, s := g.Nodes[i].TerminalCount()
		prefix += p
		suffix += s
	}
	return prefix, suffix
}
