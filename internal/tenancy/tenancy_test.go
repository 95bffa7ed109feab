package tenancy

import (
	"bytes"
	"reflect"
	"testing"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/fault"
	"nmppak/internal/genome"
	"nmppak/internal/readsim"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/telemetry"
	"nmppak/internal/trace"
)

// testWorkload builds one small shared assembly workload: reads, the
// compaction trace, and per-node-count iteration-0 seed blobs plus the
// uninterrupted reference results the fleet outcomes must match exactly.
type testWorkload struct {
	reads []readsim.Read
	tr    *trace.Trace
	seeds map[int][]byte
	want  map[int]*scaleout.Result
}

func newTestWorkload(t *testing.T) *testWorkload {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: 20_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g, readsim.Config{ReadLen: 100, Coverage: 15, ErrorRate: 0.005, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(32)
	if _, err := assemble.Run(reads, assemble.Config{
		K: 32, MinCount: 3, Flow: compact.FlowPipelined, Observer: b,
	}); err != nil {
		t.Fatal(err)
	}
	w := &testWorkload{reads: reads, tr: b.Trace(),
		seeds: map[int][]byte{}, want: map[int]*scaleout.Result{}}
	if len(w.tr.Iterations) < 3 {
		t.Fatalf("workload too small: %d iterations", len(w.tr.Iterations))
	}
	return w
}

func (w *testWorkload) cfg(nodes int) scaleout.Config { return scaleout.DefaultConfig(nodes) }

// seed memoizes the iteration-0 blob per node count (the same
// memoization the experiments sweep uses).
func (w *testWorkload) seed(t *testing.T, nodes int) []byte {
	t.Helper()
	if s, ok := w.seeds[nodes]; ok {
		return s
	}
	s, err := scaleout.Checkpoint(w.reads, w.tr, w.cfg(nodes), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.seeds[nodes] = s
	return s
}

// uninterrupted memoizes the reference Result per node count.
func (w *testWorkload) uninterrupted(t *testing.T, nodes int) *scaleout.Result {
	t.Helper()
	if r, ok := w.want[nodes]; ok {
		return r
	}
	r, err := scaleout.Restore(w.tr, w.cfg(nodes), w.seed(t, nodes))
	if err != nil {
		t.Fatal(err)
	}
	w.want[nodes] = r
	return r
}

func (w *testWorkload) job(t *testing.T, name string, prio int, arrival int64, nodes int) Job {
	return Job{Name: name, Priority: prio, Arrival: sim.Cycle(arrival),
		Trace: w.tr, Config: w.cfg(nodes), Seed: w.seed(t, nodes)}
}

// The acceptance criterion: for every policy, every preempted-and-resumed
// tenant's Result is reflect.DeepEqual to its uninterrupted run, and the
// scenarios actually exercise preemption where the policy allows it.
func TestPreemptionRoundTripExact(t *testing.T) {
	w := newTestWorkload(t)
	for _, tc := range []struct {
		name           string
		fleet          Fleet
		jobs           []Job
		wantPreemption bool
	}{
		{
			name:  "fifo",
			fleet: Fleet{Nodes: 4, Policy: FIFO{}},
			jobs: []Job{
				w.job(t, "a", 0, 0, 2),
				w.job(t, "b", 0, 0, 2),
				w.job(t, "c", 0, 0, 4),
			},
		},
		{
			name:  "priority",
			fleet: Fleet{Nodes: 4, Policy: Priority{}},
			jobs: []Job{
				w.job(t, "low", 0, 0, 4),
				w.job(t, "high", 5, 1_000, 2),
			},
			wantPreemption: true,
		},
		{
			name:  "fair",
			fleet: Fleet{Nodes: 2, Policy: FairShare{}, Quantum: 1},
			jobs: []Job{
				w.job(t, "a", 0, 0, 2),
				w.job(t, "b", 0, 0, 2),
				w.job(t, "c", 0, 500, 2),
			},
			wantPreemption: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := tc.fleet.Run(tc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantPreemption && sched.Preemptions == 0 {
				t.Fatalf("%s scenario ran without preemptions", tc.name)
			}
			if !tc.wantPreemption && sched.Preemptions != 0 {
				t.Fatalf("%s scenario preempted %d times", tc.name, sched.Preemptions)
			}
			for _, ts := range sched.Tenants {
				want := w.uninterrupted(t, ts.Demand)
				if !reflect.DeepEqual(ts.Result, want) {
					t.Fatalf("tenant %s result differs from uninterrupted run after %d preemptions",
						ts.Name, ts.Preemptions)
				}
				if ts.ServiceCycles != want.TotalCycles {
					t.Fatalf("tenant %s service %d != uninterrupted total %d",
						ts.Name, ts.ServiceCycles, want.TotalCycles)
				}
				if ts.Latency != ts.ServiceCycles+ts.OverheadCycles+ts.WaitCycles {
					t.Fatalf("tenant %s latency does not decompose", ts.Name)
				}
				if ts.Finish < ts.Started || ts.Started < ts.Arrival {
					t.Fatalf("tenant %s timeline out of order: %+v", ts.Name, ts)
				}
			}
			if sched.Utilization <= 0 || sched.Utilization > 1 {
				t.Fatalf("utilization %v outside (0, 1]", sched.Utilization)
			}
		})
	}
}

// Two identical fleet simulations must produce byte-identical tenant
// schedules and Chrome traces.
func TestScheduleDeterminism(t *testing.T) {
	w := newTestWorkload(t)
	run := func() (string, []byte) {
		col := telemetry.New()
		f := Fleet{Nodes: 4, Policy: Priority{}, Telemetry: col}
		jobs := []Job{
			w.job(t, "low", 0, 0, 4),
			w.job(t, "high", 5, 1_000, 2),
			w.job(t, "mid", 2, 2_000, 2),
		}
		sched, err := f.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return sched.String(), buf.Bytes()
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 {
		t.Fatalf("schedules differ:\n%s\nvs\n%s", s1, s2)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("chrome traces differ between identical runs")
	}
	if len(c1) == 0 || !bytes.Contains(c1, []byte(`"low"`)) || !bytes.Contains(c1, []byte(`"fleet0"`)) {
		t.Fatal("chrome trace missing tenant-labeled fleet spans")
	}
}

// An elastic (fault-plan) job is detected through the ErrElasticConfig
// sentinel, queued on dedicated nodes, never preempted, and still
// finishes bit-identically to its own uninterrupted elastic run.
func TestElasticTenantDedicated(t *testing.T) {
	w := newTestWorkload(t)
	ecfg := scaleout.DefaultConfig(2)
	ecfg.CheckpointEvery = 2
	ecfg.Faults = &fault.Plan{Events: []fault.Event{{
		Kind: fault.NodeLoss, Node: 1, Cycle: 1,
	}}}
	want, err := scaleout.Simulate(w.reads, w.tr, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	f := Fleet{Nodes: 4, Policy: FairShare{}, Quantum: 1}
	jobs := []Job{
		w.job(t, "shared", 0, 0, 2),
		{Name: "faulty", Arrival: 0, Trace: w.tr, Config: ecfg, Reads: w.reads},
	}
	sched, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var faulty *TenantStats
	for i := range sched.Tenants {
		if sched.Tenants[i].Name == "faulty" {
			faulty = &sched.Tenants[i]
		}
	}
	if faulty == nil || !faulty.Dedicated {
		t.Fatalf("fault-plan tenant not classified dedicated: %+v", faulty)
	}
	if faulty.Preemptions != 0 || faulty.Slices != 1 {
		t.Fatalf("dedicated tenant was sliced: %+v", faulty)
	}
	if !reflect.DeepEqual(faulty.Result, want) {
		t.Fatal("dedicated elastic result differs from uninterrupted Simulate")
	}
}

// Admission validation: bad demands, missing inputs, per-job telemetry.
func TestFleetValidation(t *testing.T) {
	w := newTestWorkload(t)
	f := Fleet{Nodes: 2}
	cases := []struct {
		name string
		jobs []Job
	}{
		{"no jobs", nil},
		{"oversized demand", []Job{w.job(t, "big", 0, 0, 4)}},
		{"no trace", []Job{{Name: "x", Config: scaleout.DefaultConfig(1)}}},
		{"no inputs", []Job{{Name: "x", Trace: w.tr, Config: scaleout.DefaultConfig(1)}}},
	}
	for _, tc := range cases {
		if _, err := f.Run(tc.jobs); err == nil {
			t.Fatalf("%s: Run succeeded", tc.name)
		}
	}
	bad := Fleet{Nodes: 0}
	if _, err := bad.Run([]Job{w.job(t, "a", 0, 0, 1)}); err == nil {
		t.Fatal("zero-node fleet accepted")
	}
	// Per-job telemetry is rejected before any run records into the
	// caller's collector, in either discipline.
	for _, overlap := range []bool{false, true} {
		cfg := scaleout.DefaultConfig(1)
		cfg.Overlap = overlap
		cfg.Telemetry = telemetry.New()
		if _, err := f.Run([]Job{{Name: "x", Trace: w.tr, Config: cfg, Reads: w.reads}}); err == nil {
			t.Fatalf("overlap=%v: per-job telemetry accepted", overlap)
		}
		if n := len(cfg.Telemetry.Tracks()); n != 0 {
			t.Fatalf("overlap=%v: rejected job recorded %d tracks into its collector", overlap, n)
		}
	}
}
