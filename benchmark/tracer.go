package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own code. Its layer is the part of the name before the
// first dot ("kmer.count" belongs to the kmer layer).
type span struct {
	name   string
	parent int // index into tracer.spans, -1 for a root
	probe  bool
	start  time.Duration // since the tracer's origin
	end    time.Duration
	alloc0 uint64 // cumulative heap bytes allocated at start and end
	alloc1 uint64
}

func (s *span) dur() time.Duration { return s.end - s.start }

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps every span of a traced pass in memory; nothing is written
// until the pass ends. Spans nest by call order: a span begun while
// another is open is its child. Not safe for concurrent use.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	// derived holds per-job values computed from several spans (a replay
	// is its entry point's time minus the parts measured separately);
	// counts holds per-job work counts reported at the same boundaries.
	derived map[string]float64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), derived: map[string]float64{}, counts: map[string]float64{}}
}

// span times f as a step of the job's own path.
func (t *tracer) span(name string, f func() error) (time.Duration, error) {
	return t.record(name, false, f)
}

// probe times f as an extra call the traced pass makes to measure a
// layer the job reaches only from inside another layer. Children of a
// probe are probes too.
func (t *tracer) probe(name string, f func() error) (time.Duration, error) {
	return t.record(name, true, f)
}

func (t *tracer) record(name string, probe bool, f func() error) (time.Duration, error) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		probe = probe || t.spans[parent].probe
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, probe: probe, alloc0: heapAllocBytes()})
	t.open = append(t.open, i)
	t.spans[i].start = time.Since(t.origin)
	err := f()
	t.spans[i].end = time.Since(t.origin)
	t.spans[i].alloc1 = heapAllocBytes()
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].dur(), err
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

func (t *tracer) derive(name string, v float64) { t.derived[name] += v }

// selfTimes returns, for the spans from index `from` on, each name's total
// self time in seconds and self-allocated bytes: a span's duration (or
// allocation) minus that of its children.
func (t *tracer) selfTimes(from int) (self, alloc map[string]float64) {
	self, alloc = map[string]float64{}, map[string]float64{}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		self[s.name] += s.dur().Seconds()
		alloc[s.name] += float64(s.alloc1 - s.alloc0)
		if p := s.parent; p >= from {
			self[t.spans[p].name] -= s.dur().Seconds()
			alloc[t.spans[p].name] -= float64(s.alloc1 - s.alloc0)
		}
	}
	return self, alloc
}

// pathSeconds sums the durations of the top-level job-path spans under
// the root span at index root: the traced equivalent of one untraced job.
func (t *tracer) pathSeconds(root int) float64 {
	var sum time.Duration
	for i := root + 1; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.parent == root && !s.probe {
			sum += s.dur()
		}
	}
	return sum.Seconds()
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto), one track per layer, timestamps in microseconds.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var layers []string
	tid := map[string]int{}
	for i := range t.spans {
		if l := t.spans[i].layer(); tid[l] == 0 {
			layers = append(layers, l)
			tid[l] = len(layers)
		}
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark"}}}
	for _, l := range layers {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid[l], Args: map[string]any{"name": l}})
	}
	for i := range t.spans {
		s := &t.spans[i]
		cat := "path"
		if s.probe {
			cat = "probe"
		}
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid[s.layer()],
			Args: map[string]any{"alloc_bytes": s.alloc1 - s.alloc0},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// heapAllocBytes is the cumulative count of bytes the program has
// allocated on the heap. Unlike runtime.ReadMemStats it does not stop
// the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
