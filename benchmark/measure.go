package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options control one measurement of one workload.
type options struct {
	seconds float64 // length of the timed loop
	minJobs int     // jobs (traced jobs with -trace 1) timed however long they take
	setups  int     // input builds; setup_s is their median
	tiny    bool    // unit-test inputs
}

// e2eUnits are the end-to-end metrics every run without tracing reports.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"cpu_s_per_job", "s"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

// measureE2E sets the workload up opt.setups times, keeps the last
// instance, warms it up and then runs jobs back to back, one at a time,
// for opt.seconds. Each job is timed alone; its output check and the
// calibration kernel run off the clock, between jobs. Times are scaled by
// the calibration kernel (see calibrator); alloc and RSS are not. A job's
// peak RSS is VmHWM, reset as the job starts, less the kernel's memory.
func measureE2E(w *workload, seed int64, opt options, log io.Writer) (*result, error) {
	cal, err := newCalibrator(opt.tiny)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	inst, setups, err := setUp(w, seed, opt, cal)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	// runJob times one job and the calibration kernel after it, and
	// returns the job's scaled wall and CPU time, allocation and peak RSS.
	type sample struct{ raw, cal, wall, cpu, alloc, peak float64 }
	runJob := func() (sample, error) {
		res.Attempted++
		if err := resetPeakRSS(); err != nil {
			return sample{}, err
		}
		c0, a0, t0 := cpuSeconds(), heapAllocBytes(), time.Now()
		check, err := inst.job()
		wall, alloc, cpu := time.Since(t0).Seconds(), float64(heapAllocBytes()-a0), cpuSeconds()-c0
		peak, perr := peakRSSBytes()
		if perr != nil {
			return sample{}, perr
		}
		if err == nil {
			err = check()
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "%s: job %d failed: %v\n", w.name, res.Attempted, err)
		}
		c := cal.run()
		return sample{wall, c, wall * calNominal / c, cpu * calNominal / c, alloc, peak - cal.bytes()}, nil
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := runJob(); err != nil {
			return nil, err
		}
	}
	var raw, cals, walls, cpus, allocs, peaks []float64
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(walls) < opt.minJobs || time.Now().Before(deadline) {
		s, err := runJob()
		if err != nil {
			return nil, err
		}
		raw, cals, walls = append(raw, s.raw), append(cals, s.cal), append(walls, s.wall)
		cpus, allocs, peaks = append(cpus, s.cpu), append(allocs, s.alloc), append(peaks, s.peak)
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"setup_s":          median(setups),
		"job_p50_s":        median(walls),
		"cpu_s_per_job":    median(cpus),
		"alloc_mb_per_job": median(allocs) / 1e6,
		"peak_rss_mb":      median(peaks) / 1e6,
	}
	for _, m := range e2eUnits {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	fmt.Fprintf(log, "%s: %d timed jobs, %d warm-up, %d setups; unscaled job p50 %.4f s, calibration kernel p50 %.4f s (nominal %.3f s)\n",
		w.name, len(walls), w.warmup, len(setups), median(raw), median(cals), calNominal)
	return res, nil
}

// setUp builds the workload's inputs opt.setups times and returns the
// last instance with every build's duration, scaled by the calibration
// kernel when cal is not nil.
func setUp(w *workload, seed int64, opt options, cal *calibrator) (*instance, []float64, error) {
	var inst *instance
	var secs []float64
	for i := 0; i < max(opt.setups, 1); i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, opt.tiny); err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		if cal != nil {
			d *= calNominal / cal.run()
		}
		secs = append(secs, d)
	}
	return inst, secs, nil
}

// jobLayers is what one traced job measured: the wall time of its job
// path (the traced equivalent of one untraced job), each span name's self
// time and self allocation, and the derived values and counts its code
// recorded.
type jobLayers struct {
	path            float64
	self, alloc     map[string]float64
	derived, counts map[string]float64
}

// layerMetric computes one per-layer metric from a traced job. Layer
// times are shares of the job path, so that a layer a workload never
// calls reads 0 without being mistaken for a measured time.
type layerMetric struct {
	name, unit string
	value      func(j *jobLayers) float64
}

func spanFrac(span string) func(*jobLayers) float64 {
	return func(j *jobLayers) float64 { return j.self[span] / j.path }
}

func derivedFrac(name string) func(*jobLayers) float64 {
	return func(j *jobLayers) float64 { return j.derived[name] / j.path }
}

func spanAllocMB(span string) func(*jobLayers) float64 {
	return func(j *jobLayers) float64 { return j.alloc[span] / 1e6 }
}

func counted(name string) func(*jobLayers) float64 {
	return func(j *jobLayers) float64 { return j.counts[name] }
}

// layerMetrics are the per-layer metrics a traced run reports. The last,
// trace.overhead_frac, compares the traced and untraced jobs of the run
// and has no per-job value.
var layerMetrics = []layerMetric{
	{"trace.job_s", "s", func(j *jobLayers) float64 { return j.path }},
	{"kmer.count_frac", "frac", spanFrac("kmer.count")},
	{"kmer.count_alloc_mb", "MB", spanAllocMB("kmer.count")},
	{"kmer.distinct", "count", counted("kmer.distinct")},
	{"pakgraph.build_frac", "frac", spanFrac("pakgraph.build")},
	{"pakgraph.macronodes", "count", counted("pakgraph.macronodes")},
	{"compact.run_frac", "frac", spanFrac("compact.run")},
	{"compact.run_alloc_mb", "MB", spanAllocMB("compact.run")},
	{"compact.iterations", "count", counted("compact.iterations")},
	{"walk.contigs_frac", "frac", spanFrac("walk.contigs")},
	{"walk.contigs", "count", counted("walk.contigs")},
	{"scaleout.count_sharded_frac", "frac", spanFrac("scaleout.count_sharded")},
	{"scaleout.count_sharded_alloc_mb", "MB", spanAllocMB("scaleout.count_sharded")},
	{"scaleout.count_exchange_bytes", "bytes", counted("scaleout.count_exchange_bytes")},
	{"scaleout.build_shard_graphs_frac", "frac", spanFrac("scaleout.build_shard_graphs")},
	{"scaleout.shard_trace_frac", "frac", spanFrac("scaleout.shard_trace")},
	{"scaleout.shard_trace_alloc_mb", "MB", spanAllocMB("scaleout.shard_trace")},
	{"scaleout.halo_bytes", "bytes", counted("scaleout.halo_bytes")},
	{"scaleout.replay_frac", "frac", derivedFrac("scaleout.replay")},
	{"scaleout.replay_serial_frac", "frac", derivedFrac("scaleout.replay_serial")},
	{"scaleout.replay_speedup", "x", func(j *jobLayers) float64 {
		if j.derived["scaleout.replay"] <= 0 {
			return 0
		}
		return j.derived["scaleout.replay_serial"] / j.derived["scaleout.replay"]
	}},
	{"scaleout.replay_macro_frac", "frac", func(j *jobLayers) float64 {
		if j.derived["scaleout.replay_serial"] == 0 {
			return 0
		}
		return (j.derived["scaleout.replay_serial"] - j.self["nmp.step"]) / j.path
	}},
	{"nmp.step_frac", "frac", spanFrac("nmp.step")},
	{"nmp.step_alloc_mb", "MB", spanAllocMB("nmp.step")},
	{"nmp.node_iterations", "count", counted("nmp.node_iterations")},
	{"topo.exchange_frac", "frac", spanFrac("topo.exchange")},
	{"topo.messages", "count", counted("topo.messages")},
	{"checkpoint.encode_frac", "frac", spanFrac("checkpoint.encode")},
	{"checkpoint.decode_frac", "frac", spanFrac("checkpoint.decode")},
	{"checkpoint.blob_bytes", "bytes", counted("checkpoint.blob_bytes")},
	{"scaleout.resume_session_frac", "frac", spanFrac("scaleout.resume_session")},
	{"scaleout.session_step_frac", "frac", spanFrac("scaleout.session_step")},
	{"scaleout.session_checkpoint_frac", "frac", spanFrac("scaleout.session_checkpoint")},
	{"tenancy.scheduler_frac", "frac", derivedFrac("tenancy.scheduler")},
	{"tenancy.preemptions", "count", counted("tenancy.preemptions")},
	{"tenancy.slices", "count", counted("tenancy.slices")},
	{"tenancy.checkpoint_bytes", "bytes", counted("tenancy.checkpoint_bytes")},
	{"scaleout.rebalances", "count", counted("scaleout.rebalances")},
	{"scaleout.migrated_bytes", "bytes", counted("scaleout.migrated_bytes")},
	{"scaleout.elastic_captures", "count", counted("scaleout.elastic_captures")},
	{"scaleout.recoveries", "count", counted("scaleout.recoveries")},
	{"trace.overhead_frac", "frac", nil},
}

// measureTraced sets the workload up once, warms it up and then
// alternates an untraced job with a traced one for opt.seconds (at least
// opt.minJobs pairs). Each per-layer metric is its median over the traced
// jobs; trace.overhead_frac is the median traced job path over the median
// untraced job, minus one.
func measureTraced(w *workload, seed int64, opt options, t *tracer, log io.Writer) (*result, error) {
	inst, _, err := setUp(w, seed, options{setups: 1, tiny: opt.tiny}, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Failed++
		fmt.Fprintf(log, "%s: job %d failed: %v\n", w.name, res.Attempted, err)
	}
	untraced := func() float64 {
		res.Attempted++
		t0 := time.Now()
		check, err := inst.job()
		wall := time.Since(t0).Seconds()
		if err == nil {
			err = check()
		}
		if err != nil {
			fail(err)
		}
		return wall
	}
	for i := 0; i < w.warmup; i++ {
		untraced()
	}
	var plain []float64
	perMetric := map[string][]float64{}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(plain) < opt.minJobs || time.Now().Before(deadline) {
		plain = append(plain, untraced())
		res.Attempted++
		from := len(t.spans)
		if _, err := t.span("bench.job", func() error { return inst.traced(t) }); err != nil {
			fail(err)
		}
		j := &jobLayers{path: t.pathSeconds(from), derived: t.derived, counts: t.counts}
		j.self, j.alloc = t.selfTimes(from)
		t.derived, t.counts = map[string]float64{}, map[string]float64{}
		for _, m := range layerMetrics {
			if m.value != nil {
				perMetric[m.name] = append(perMetric[m.name], m.value(j))
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range layerMetrics {
		v := median(perMetric[m.name])
		if m.name == "trace.overhead_frac" {
			v = median(perMetric["trace.job_s"])/median(plain) - 1
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	fmt.Fprintf(log, "%s: %d traced and untraced job pairs, %d warm-up\n", w.name, len(plain), w.warmup)
	return res, nil
}

// validate checks the result against the output contract: every value a
// finite number.
func (r *result) validate() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the kernel's peak resident set size (VmHWM) of this
// process to its current resident size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSBytes reads VmHWM, the process's peak resident set size.
func peakRSSBytes() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				if err != nil {
					return 0, fmt.Errorf("read peak RSS: %w", err)
				}
				return kb * 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
