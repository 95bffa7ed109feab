package nmp

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"nmppak/internal/dram"
	"nmppak/internal/sim"
	"nmppak/internal/trace"
)

// Snapshotting an engine at every iteration boundary and resuming from the
// snapshot must finish with a result bit-identical to the uninterrupted
// replay: the engine's behaviour is a pure function of (trace, config,
// state), including the DRAM bank timing carried across the boundary. The
// resumed engine replays a trace whose iterations behind the cursor are
// empty placeholders, but for iteration 0 under StaticMapping, whose DIMM
// table every iteration is placed by.
func TestEngineSnapshotResumeEquivalence(t *testing.T) {
	tr := getTrace(t)
	static := DefaultConfig()
	static.StaticMapping = true
	for _, cfg := range []Config{DefaultConfig(), static} {
		want, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(tr.Iterations); cut++ {
			e, err := NewEngine(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				e.StepIteration()
			}
			st, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Mutating the donor afterwards must not leak into the snapshot.
			for !e.Done() {
				e.StepIteration()
			}
			ahead := &trace.Trace{K: tr.K, Iterations: make([]trace.Iteration, len(tr.Iterations))}
			copy(ahead.Iterations[cut:], tr.Iterations[cut:])
			if cfg.StaticMapping {
				ahead.Iterations[0] = tr.Iterations[0]
			}
			r, err := ResumeEngine(ahead, cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if r.Next() != cut || r.Now() != st.Clock {
				t.Fatalf("static=%v cut %d: resumed at next=%d clock=%d", cfg.StaticMapping, cut, r.Next(), r.Now())
			}
			for !r.Done() {
				r.StepIteration()
			}
			if got := r.Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("static=%v cut %d: resumed result differs from uninterrupted run:\n%+v\nvs\n%+v", cfg.StaticMapping, cut, got, want)
			}
		}
	}
}

// Snapshot must copy: stepping the donor engine after the snapshot
// cannot change the snapshot's contents. The reference is a serialized
// copy taken before the donor advances, so a shallow Snapshot — whose
// iteration timings or channel block would alias the engine's live ones
// — is actually caught.
func TestEngineSnapshotIsolation(t *testing.T) {
	tr := getTrace(t)
	cfg := DefaultConfig()
	e, err := NewEngine(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.StepIteration()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := gob.NewEncoder(&before).Encode(st); err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.StepIteration()
	}
	var after bytes.Buffer
	if err := gob.NewEncoder(&after).Encode(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("snapshot mutated by stepping the donor engine")
	}
}

func TestEngineResumeErrors(t *testing.T) {
	tr := getTrace(t)
	cfg := DefaultConfig()
	e, err := NewEngine(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.StepIteration()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeEngine(nil, cfg, st); err == nil {
		t.Error("ResumeEngine accepted a nil trace")
	}
	bad := st
	bad.Next = len(tr.Iterations) + 1
	if _, err := ResumeEngine(tr, cfg, bad); err == nil {
		t.Error("ResumeEngine accepted an out-of-range cursor")
	}
	bad = st
	bad.Next = -1
	if _, err := ResumeEngine(tr, cfg, bad); err == nil {
		t.Error("ResumeEngine accepted a negative cursor")
	}
	bad = st
	bad.Res.PerIter = nil
	if _, err := ResumeEngine(tr, cfg, bad); err == nil {
		t.Error("ResumeEngine accepted a result missing its iteration timings")
	}
	bad = st
	bad.Channels = nil
	if _, err := ResumeEngine(tr, cfg, bad); err == nil {
		t.Error("ResumeEngine accepted a state without channel states")
	}
	bad = st
	mem := *st.Channels
	mem[1].Ranks[0] = dram.RankState{}
	bad.Channels = &mem
	if _, err := ResumeEngine(tr, cfg, bad); err == nil {
		t.Error("ResumeEngine accepted a channel state with a zeroed rank")
	}
	// A state carrying the totals Result() seals would count them twice.
	for _, forge := range []struct {
		name string
		edit func(*Result)
	}{
		{"a Mem entry", func(r *Result) { r.Mem = []dram.Stats{{BytesRead: 1 << 40}} }},
		{"BytesRead", func(r *Result) { r.BytesRead = 1 << 40 }},
		{"BytesWrite", func(r *Result) { r.BytesWrite = 1 }},
		{"Iterations", func(r *Result) { r.Iterations = 1 }},
		{"Cycles", func(r *Result) { r.Cycles = 1 }},
		{"Seconds", func(r *Result) { r.Seconds = 1e-9 }},
		{"Utilization", func(r *Result) { r.Utilization = 0.5 }},
	} {
		bad = st
		forge.edit(&bad.Res)
		if _, err := ResumeEngine(tr, cfg, bad); err == nil {
			t.Errorf("ResumeEngine accepted a result with sealed %s", forge.name)
		}
	}
	for _, clock := range []sim.Cycle{-1, dram.MaxCycle + 1, math.MaxInt64 - 5} {
		bad = st
		bad.Clock = clock
		if _, err := ResumeEngine(tr, cfg, bad); err == nil {
			t.Errorf("ResumeEngine accepted clock %d", clock)
		}
	}
	// A sealed engine has folded channel stats into the result; a snapshot
	// of it would double-count on resume.
	for !e.Done() {
		e.StepIteration()
	}
	e.Result()
	if _, err := e.Snapshot(); err == nil {
		t.Error("Snapshot allowed on a sealed engine")
	}
}
