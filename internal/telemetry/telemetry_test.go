package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestTrackShiftRange(t *testing.T) {
	tr := &Track{Kind: TrackDRAM, Name: "ch0"}
	tr.Add(SpanBus, 10, 20, 64, 0)
	from := tr.Len()
	tr.Add(SpanBus, 5, 9, 64, 0)
	tr.Add(SpanBus, 12, 15, 32, 1)
	to := tr.Len()
	tr.Add(SpanBus, 3, 4, 8, 0) // a later batch, still on its local clock

	tr.ShiftRange(from, to, 100)
	want := []Span{
		{SpanBus, 10, 20, 64, 0},
		{SpanBus, 105, 109, 64, 0},
		{SpanBus, 112, 115, 32, 1},
		{SpanBus, 3, 4, 8, 0},
	}
	for i, w := range want {
		if tr.Spans[i] != w {
			t.Fatalf("span %d = %+v, want %+v", i, tr.Spans[i], w)
		}
	}
	// Zero delta must be a no-op.
	tr.ShiftRange(0, tr.Len(), 0)
	if tr.Spans[0] != want[0] {
		t.Fatalf("zero-delta ShiftRange moved spans: %+v", tr.Spans[0])
	}
}

// chromeDoc is the subset of the trace-event schema the tests decode.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Name string `json:"name"`
	} `json:"traceEvents"`
}

func TestWriteChromeValidDeterministicJSON(t *testing.T) {
	build := func() *Collector {
		c := New()
		rt := c.NewTrack(TrackRuntime, 0, "phases")
		rt.Add(SpanCompute, 0, 50, -1, 0)
		rt.Add(SpanCheckpoint, 50, 50, 3, 0) // zero-length -> instant event
		nd := c.NewTrack(TrackNode, 0, "node0")
		nd.Add(SpanIter, 0, 40, 0, 7)
		nd.Add(SpanIdle, 40, 50, 0, 0)
		return c
	}

	var a, b bytes.Buffer
	if err := build().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical collectors produced different Chrome JSON")
	}

	var doc chromeDoc
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// 2 process_name + 2*(thread_name + thread_sort_index) metadata, then
	// 3 complete spans + 1 instant.
	meta, complete, instant := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur <= 0 {
				t.Fatalf("complete event %q has dur %d", e.Name, e.Dur)
			}
		case "i":
			instant++
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if meta != 6 || complete != 3 || instant != 1 {
		t.Fatalf("got %d metadata / %d complete / %d instant events, want 6/3/1", meta, complete, instant)
	}
}

func TestAnalyze(t *testing.T) {
	c := New()
	rt := c.NewTrack(TrackRuntime, 0, "phases")
	rt.Add(SpanCompute, 0, 50, -1, 0)
	rt.Add(SpanExchangeWait, 50, 80, -1, 0)
	rt.Add(SpanLinkBarrier, 80, 90, 0, 0)
	rt.Add(SpanMigration, 90, 100, 1, 4096)

	nd := c.NewTrack(TrackNode, 0, "node0")
	nd.Add(SpanIter, 0, 40, 0, 7)
	nd.Add(SpanIdle, 40, 60, 0, 0)
	nd.Add(SpanExchangeWait, 60, 100, 0, 0)

	lk := c.NewTrack(TrackLink, 0, "mesh/link0")
	lk.Add(SpanLink, 0, 10, 100, 0)
	lk.Add(SpanLink, 10, 30, 200, 5)

	dr := c.NewTrack(TrackDRAM, 0, "node0/ch0")
	dr.Add(SpanBus, 0, 4, 64, 0)
	dr.Add(SpanBus, 6, 8, 32, 1)

	u := Analyze(c)
	if u.Total != 100 {
		t.Fatalf("Total = %d, want 100", u.Total)
	}
	if u.CommCycles != 50 || u.CommFraction != 0.5 {
		t.Fatalf("comm = %d cycles / %v, want 50 / 0.5", u.CommCycles, u.CommFraction)
	}
	if u.ComputeCycles != 50 {
		t.Fatalf("ComputeCycles = %d, want 50", u.ComputeCycles)
	}
	n := u.Nodes[0]
	if n.Busy != 40 || n.Idle != 20 || n.Stall != 40 || n.Iters != 1 || n.DRAMBusy != 7 {
		t.Fatalf("node util = %+v", n)
	}
	l := u.Links[0]
	if l.Busy != 30 || l.Bytes != 300 || l.Messages != 2 || l.PeakBacklog != 25 {
		t.Fatalf("link util = %+v", l)
	}
	if l.Utilization != 0.3 {
		t.Fatalf("link utilization = %v, want 0.3", l.Utilization)
	}
	d := u.DRAM[0]
	if d.Busy != 6 || d.Bytes != 96 {
		t.Fatalf("dram util = %+v", d)
	}
}

func TestCriticalPath(t *testing.T) {
	c := New()
	n0 := c.NewTrack(TrackNode, 0, "node0")
	n0.Add(SpanIter, 0, 10, 0, 0)
	n0.Add(SpanIter, 30, 40, 1, 0)
	n1 := c.NewTrack(TrackNode, 1, "node1")
	n1.Add(SpanIter, 0, 20, 0, 0)
	n1.Add(SpanIter, 30, 45, 1, 0)
	// node1's second iteration was gated by a halo delivery from node0.
	c.AddDep(1, 1, BoundDelivery, 0)

	cp := CriticalPath(c)
	if len(cp) != 2 {
		t.Fatalf("path has %d entries, want 2", len(cp))
	}
	// The path ends at node1 (finishes at 45) and steps back to the halo
	// sender node0 for iteration 0.
	want1 := CPEntry{Iter: 1, Node: 1, Compute: 15, Wait: 20, Bound: BoundDelivery, Src: 0}
	if cp[1] != want1 {
		t.Fatalf("entry 1 = %+v, want %+v", cp[1], want1)
	}
	want0 := CPEntry{Iter: 0, Node: 0, Compute: 10, Wait: 0, Bound: BoundNone, Src: -1}
	if cp[0] != want0 {
		t.Fatalf("entry 0 = %+v, want %+v", cp[0], want0)
	}

	if got := CriticalPath(New()); got != nil {
		t.Fatalf("empty collector critical path = %v, want nil", got)
	}
}
