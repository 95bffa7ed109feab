package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/experiments"
	"nmppak/internal/scaleout"
)

// tinyRun is a measurement on unit-test inputs: two jobs, one setup.
var tinyRun = options{minJobs: 2, setups: 1, tiny: true}

// benchmarkSpec reads the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func checkMetrics(t *testing.T, label string, res *result, want map[string]string) {
	t.Helper()
	if err := res.validate(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

// Every workload completes its jobs on tiny inputs and reports exactly the
// metrics BENCHMARK.json lists, with their units, in both kinds of run.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	e2e, layers := benchmarkSpec(t)
	for _, w := range workloads {
		w.warmup = 0
		res, err := measureE2E(&w, 42, tinyRun, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want 2 jobs without failure",
				w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name, res, e2e)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}

		res, err = measureTraced(&w, 42, options{minJobs: 1, tiny: true}, newTracer(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run failed %d of %d jobs", w.name, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name+" traced", res, layers)
		if res.Metrics["trace.job_s"].Value <= 0 {
			t.Errorf("%s: trace.job_s = %v", w.name, res.Metrics["trace.job_s"].Value)
		}
	}
}

// A job whose output disagrees with its setup reference is counted as
// failed, and the run is not correct.
func TestCorruptReferenceCountsAsFailure(t *testing.T) {
	broken := workload{name: "broken", setup: func(seed int64, tiny bool) (*instance, error) {
		ctx, err := newContext(experiments.QuickWorkload(), seed, tiny)
		if err != nil {
			return nil, err
		}
		tr, err := ctx.Trace()
		if err != nil {
			return nil, err
		}
		c, err := newSimCase("broken", ctx.Reads, tr, scaleout.DefaultConfig(4))
		if err != nil {
			return nil, err
		}
		c.anchor.TotalCycles++
		return simInstance(ctx.Reads, tr, nil, c), nil
	}}
	res, err := measureE2E(&broken, 42, tinyRun, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != 2 {
		t.Errorf("correct=%v failed=%d attempted=%d, want 2 of 2 failed", res.Correct, res.Failed, res.Attempted)
	}
}

// One traced job: no span's children outlast it, the self times sum to
// the root span, and the Chrome export is valid JSON with one named track
// per layer and every span on its layer's track.
func TestTracedJob(t *testing.T) {
	inst, _, err := setUp(lookup(t, "scaleout-skewed64"), 42, tinyRun, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, err := tr.span("bench.job", func() error { return inst.traced(tr) }); err != nil {
		t.Fatal(err)
	}
	children := make([]float64, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].parent; p >= 0 {
			children[p] += tr.spans[i].dur().Seconds()
		}
	}
	for i := range tr.spans {
		if d := tr.spans[i].dur().Seconds(); children[i] > d {
			t.Errorf("span %s lasts %v but its children %v", tr.spans[i].name, d, children[i])
		}
	}
	self, _ := tr.selfTimes(0)
	var sum float64
	for _, v := range self {
		sum += v
	}
	root := tr.spans[0].dur().Seconds()
	if d := sum - root; d > 1e-9 || d < -1e-9 {
		t.Errorf("self times sum to %v, root span lasts %v", sum, root)
	}
	if path := tr.pathSeconds(0); path <= 0 || path > root {
		t.Errorf("job path %v outside (0, %v]", path, root)
	}

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	track := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if _, dup := track[e.Tid]; dup {
				t.Errorf("track %d named twice", e.Tid)
			}
			track[e.Tid] = e.Args["name"].(string)
		}
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if layer, _, _ := strings.Cut(e.Name, "."); track[e.Tid] != layer {
			t.Errorf("span %s on track %q", e.Name, track[e.Tid])
		}
	}
	if spans != len(tr.spans) || len(track) != 5 {
		t.Errorf("%d spans on %d tracks, want %d spans on the bench, scaleout, nmp, topo and checkpoint tracks",
			spans, len(track), len(tr.spans))
	}
}

func lookup(t *testing.T, name string) *workload {
	t.Helper()
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %s", name)
	return nil
}

func TestClassify(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same runs", steady, steady, "lower", 0.1, unchanged},
		{"5% slower within a 10% bound", steady, scale(steady, 1.05), "lower", 0.1, unchanged},
		{"20% slower", steady, scale(steady, 1.2), "lower", 0.1, regressed},
		{"20% faster", steady, scale(steady, 0.8), "lower", 0.1, improved},
		{"higher is better, 20% lower", steady, scale(steady, 0.8), "higher", 0.1, regressed},
		{"higher is better, 20% higher", steady, scale(steady, 1.2), "higher", 0.1, improved},
		{"parent spread wider than the bound", noisy, scale(noisy, 1.2), "lower", 0.1, unresolved},
		{"noisy parent but every change run better", noisy, scale(steady, 0.5), "lower", 0.1, improved},
		{"one run each", steady[:1], steady[:1], "lower", 0.1, unresolved},
	} {
		if got := classify(tc.parent, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// -compare regresses on a slower change and a rise in failures.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := dir + "/" + name
		for i := 0; i < 4; i++ {
			res := &result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metric{
				"job_p50_s": {p50 * (1 + 0.001*float64(i)), "s"},
			}}
			if err := appendRecord(path, &runRecord{Workload: "w", Seed: int64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	sp := &spec{EndToEnd: []specMetric{{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	base := write("base.jsonl", 1, 0)
	for _, tc := range []struct {
		name   string
		change string
		ok     bool
	}{
		{"unchanged", write("same.jsonl", 1, 0), true},
		{"slower", write("slow.jsonl", 1.5, 0), false},
		{"failing", write("fail.jsonl", 1, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(sp, base, tc.change, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}

// The oracle is strand-aware: a genome's reverse complement recovers all
// of it, half the genome about half.
func TestKmerOracle(t *testing.T) {
	w := experiments.QuickWorkload()
	ctx, err := newContext(w, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	g := ctx.Genome.Replicons[0]
	o := newKmerOracle([]dna.Seq{g}, 31)
	if f := o.recall([]dna.Seq{g.ReverseComplement()}); f != 1 {
		t.Errorf("reverse complement recovers %v, want 1", f)
	}
	if f := o.recall([]dna.Seq{g.Slice(0, g.Len()/2)}); f < 0.45 || f > 0.55 {
		t.Errorf("half the genome recovers %v, want about 0.5", f)
	}
	if f := o.recall(nil); f != 0 {
		t.Errorf("no contigs recover %v", f)
	}
}
