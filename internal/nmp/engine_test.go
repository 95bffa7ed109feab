package nmp

import (
	"reflect"
	"testing"
)

// Simulate is a thin loop over the stepwise Engine; driving the engine by
// hand with the same schedule must reproduce it field for field.
func TestEngineStepwiseMatchesSimulate(t *testing.T) {
	tr := getTrace(t)
	want, err := Simulate(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.Iterations() != len(tr.Iterations) || e.Done() || e.Next() != 0 {
		t.Fatalf("fresh engine state: iters=%d done=%v next=%d", e.Iterations(), e.Done(), e.Next())
	}
	for !e.Done() {
		it := e.Next()
		ti := e.StepIteration()
		if ti != want.PerIter[it] {
			t.Fatalf("iteration %d timing %+v, Simulate %+v", it, ti, want.PerIter[it])
		}
		if e.Now() != ti.End {
			t.Fatalf("iteration %d: engine clock %d, timing end %d", it, e.Now(), ti.End)
		}
	}
	got := e.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stepwise result differs from Simulate:\n%+v\nvs\n%+v", got, want)
	}
}

func TestEngineMisuse(t *testing.T) {
	if _, err := NewEngine(nil, DefaultConfig()); err == nil {
		t.Fatal("NewEngine accepted a nil trace")
	}
	bad := DefaultConfig()
	bad.PEsPerChannel = 0
	if _, err := NewEngine(getTrace(t), bad); err == nil {
		t.Fatal("NewEngine accepted an invalid config")
	}
	e, err := NewEngine(getTrace(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		e.StepIteration()
	}
	mustPanic(t, "step past end", func() { e.StepIteration() })
	e.Result()
	if got := e.Result(); got.Iterations != e.Iterations() {
		t.Fatal("Result not idempotent")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
