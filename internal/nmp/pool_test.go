package nmp

import (
	"reflect"
	"sync"
	"testing"
)

// poolShapes varies every field the pooled iteration scratch is keyed on,
// plus the hybrid path, so interleaved engines keep handing the pool
// values of the wrong shape.
func poolShapes() []Config {
	var cfgs []Config
	add := func(f func(*Config)) {
		c := DefaultConfig()
		f(&c)
		cfgs = append(cfgs, c)
	}
	add(func(c *Config) {})
	add(func(c *Config) { c.PEsPerChannel = 4 })
	add(func(c *Config) { c.P3QueueDepth = 1 })
	add(func(c *Config) { c.HybridThresholdBytes = 64 })
	return cfgs
}

// stepInterleaved replays one engine per config, stepping them in
// alternation; engine k joins after k rounds, so neighbouring steps run
// iterations of different sizes as well as different shapes.
func stepInterleaved(t *testing.T, cfgs []Config) []*Result {
	tr := getTrace(t)
	engines := make([]*Engine, len(cfgs))
	for k, cfg := range cfgs {
		e, err := NewEngine(tr, cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		engines[k] = e
	}
	for round := 0; ; round++ {
		active := false
		for k, e := range engines {
			if round >= k && !e.Done() {
				e.StepIteration()
			}
			active = active || !e.Done()
		}
		if !active {
			break
		}
	}
	res := make([]*Result, len(engines))
	for k, e := range engines {
		res[k] = e.Result()
	}
	return res
}

func simulateEach(t *testing.T, cfgs []Config) []*Result {
	want := make([]*Result, len(cfgs))
	for k, cfg := range cfgs {
		r, err := Simulate(getTrace(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r
	}
	return want
}

// Engines of different shapes sharing the scratch pool on one goroutine
// reproduce their own sequential Simulate exactly.
func TestPooledScratchInterleavedShapes(t *testing.T) {
	cfgs := poolShapes()
	want := simulateEach(t, cfgs)
	got := stepInterleaved(t, cfgs)
	for k := range cfgs {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("config %d: interleaved result differs from Simulate:\n%v\nvs\n%v", k, got[k], want[k])
		}
	}
}

// The same on 8 goroutines at once, as the parallel runtime's workers step
// engines concurrently (run under -race in CI).
func TestPooledScratchConcurrentShapes(t *testing.T) {
	cfgs := poolShapes()
	want := simulateEach(t, cfgs)
	const workers = 8
	const perWorker = 3
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]Config, perWorker)
			for i := range mine {
				mine[i] = cfgs[(w+i)%len(cfgs)]
			}
			got[w] = stepInterleaved(t, mine)
		}()
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			k := (w + i) % len(cfgs)
			if !reflect.DeepEqual(r, want[k]) {
				t.Fatalf("worker %d, config %d: concurrent result differs from Simulate:\n%v\nvs\n%v", w, k, r, want[k])
			}
		}
	}
}
