// Command benchmark is the repository's end-to-end benchmark. It runs
// four workloads, each as a closed loop: one job in flight at a time,
// back to back, every job a single call to a public entry point
// (assemble.Run, scaleout.Simulate or tenancy.Fleet.Run) whose output is
// checked. GOMAXPROCS is set to the number of CPUs and every Workers knob
// to 0, so the benchmark runs no more threads than there are cores. The
// genome and reads come from -seed (default 42; keep 1042 for checking a
// claim on inputs it was not tuned on); the program under test only ever
// sees the generated reads.
//
// Run it from the repository root through the wrapper, which builds it
// from source into .bench_build/:
//
//	bash benchmark/run.sh -workload all
//	bash benchmark/run.sh -workload fleet-fairshare -trace 1 -chrome fleet.json
//	bash benchmark/run.sh -workload all -seed 1042 -out change.jsonl
//	bash benchmark/run.sh -compare parent.jsonl change.jsonl
//
// Each run prints a header stamped with the workload, seed, nproc,
// GOMAXPROCS and Go version, then every metric with its unit, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// Timings compare only between records taken on the same core count.
//
// # Workloads
//
// assemble-100x: a 100 kb repeat-free genome at 100x coverage, 1% errors,
// k=32, MinCount 3, one batch; one assemble.Run per job. The real
// assembler, where k-mer counting and compaction dominate. No simulator
// layer runs, so a replay, nmp or checkpoint change must not move it.
//
// scaleout-mesh64: the 60 kb, 20x quick workload on 64 nodes, full mesh,
// hash partitioner, overlapped replay; one scaleout.Simulate per job. The
// distributed prelude and the conservative-PDES windowed scheduler; no
// checkpoint or tenancy code runs.
//
// scaleout-skewed64: the quick workload with 45% of the genome in repeats
// of 150 bp. Each job runs scaleout.Simulate twice: BSP with
// NewRebalancePartitioner(12, 1) on an 8x8 torus, then overlapped with
// CheckpointEvery=2 and node 32 lost halfway through the fault-free
// compaction phase. The same prelude and replay used another way: hot
// buckets, barrier windows, migrations, multi-hop routes, the elastic
// checkpoint ring and recovery.
//
// fleet-fairshare: the quick workload on an 8-node FairShare fleet with
// Quantum 1<<18 and six tenants demanding {2,6,2,2,6,2} nodes, arriving
// 50,000 cycles apart, from iteration-0 seed blobs built in set-up; one
// Fleet.Run per job. Checkpoint writes beside resumes, about 20
// preemptions per job, with the software prelude skipped.
//
// A job fails when it returns an error or its check fails. The assembly's
// contig multiset must equal the set-up reference and recover at least
// 99% of the reference's canonical 31-mers (kmerOracle, the benchmark's
// own, so a change to the metrics package cannot move it). A scale-out
// Result must be reflect.DeepEqual to the Workers=1 anchor built in
// set-up. A fleet Schedule must render as the Workers=1 set-up reference
// and every tenant's Result must equal its uninterrupted Restore. At seed
// 42 the simulated cycles must also equal pinnedCycles.
//
// # End-to-end metrics (-trace 0)
//
//	setup_s           s   median of 3 input builds: genome, reads, trace, anchors, seed blobs
//	job_p50_s         s   median job time
//	cpu_s_per_job     s   median user+system CPU time of a job
//	alloc_mb_per_job  MB  median heap bytes allocated by a job
//	peak_rss_mb       MB  median over jobs of the job's peak resident set (VmHWM, reset as it starts)
//
// Their bounds in BENCHMARK.json (25% for setup_s, 20% for the job times,
// 15% for allocation, 10% for RSS) are how much worse a metric may get
// before -compare calls it regressed. The host the bounds were set on is shared and
// drifts by 10% or more over tens of seconds, so times are scaled by a
// calibration kernel timed after every job and set-up (see calibrator):
// they read as seconds on a quiet host where the kernel takes
// calNominal. The unscaled job median is logged. A job tail percentile is
// not reported: a 15-second loop of jobs this long leaves too few samples
// beyond any tail. Failed jobs are the record's failed of attempted, and
// -compare flags any rise in their share.
//
// # Per-layer metrics (-trace 1)
//
// A traced run alternates an untraced job with a traced one. The traced
// job does the job's work through the layers' own public functions, with
// a span around each call from this package; the spans stay in memory
// and -chrome writes them at exit as Chrome trace JSON, one track per
// layer. The spans that reproduce the job form its path. Probes are extra
// calls that time a layer the job reaches only from inside another:
// ShardTrace, nmp.Simulate over the shard traces, topo.Exchange over the
// halo matrices, checkpoint decode and encode, the replay again at
// Workers=1, and each tenant's ResumeSession/Step/Checkpoint/Finish
// sequence replayed with the slice count it had on the fleet.
//
// A layer's time is its self time (duration minus child spans) over the
// job path's time, reported as _frac, so a layer a workload never calls
// reads 0; trace.job_s gives the scale. Each value is the median over the
// run's traced jobs. Derived values: scaleout.replay is the entry point
// (Restore from the iteration-0 blob, or Simulate for the elastic
// configuration, which Restore rejects) minus its parts timed alone;
// scaleout.replay_macro is the serial replay minus nmp.step;
// tenancy.scheduler is Fleet.Run minus the replayed sessions;
// trace.overhead_frac is the traced job path over the untraced job,
// minus one.
//
// Which end-to-end metric each layer should move, and where the
// prediction is no change:
//
//	kmer, pakgraph          job_p50_s, alloc_mb_per_job on assemble-100x        not fleet-fairshare
//	compact, walk           job_p50_s, peak_rss_mb on assemble-100x;            not the scale-out job metrics
//	                        setup_s everywhere (trace capture)
//	scaleout.count_sharded, job_p50_s on both scale-out workloads               not fleet-fairshare, assemble-100x
//	build_shard_graphs
//	scaleout.shard_trace    job_p50_s on both scale-out workloads and           not assemble-100x
//	                        fleet-fairshare (every resume re-shards)
//	scaleout.replay*, nmp   job_p50_s, cpu_s_per_job on both scale-out          not assemble-100x
//	                        workloads; nmp also on fleet-fairshare
//	topo                    job_p50_s on scaleout-skewed64 more than on mesh    not assemble-100x
//	checkpoint, sessions    job_p50_s, alloc_mb_per_job on fleet-fairshare;     not scaleout-mesh64, assemble-100x
//	                        encode also on scaleout-skewed64
//	tenancy                 job_p50_s on fleet-fairshare                        not the others
//
// The rebalance, migration, capture and recovery counts of
// scaleout-skewed64 repeat exactly for a seed.
//
// # Comparing two commits
//
// -out appends one JSON record per workload run. -compare reads a
// parent's and a change's records and, for every (workload, end-to-end
// metric) pair, prints the medians and the parent's quartile spread and
// labels the pair: regressed when the change's median is worse than the
// parent's by more than the bound; unresolved when the parent's own
// spread is wider than the bound, unless every change run beats every
// parent run; improved when the medians differ by more than the parent's
// spread and the change wins nine tenths of all run pairs; unchanged
// otherwise. A rise in a workload's share of failed jobs is a regression.
// It exits 1 on any regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run ("+strings.Join(names, ", ")+") or all")
	seed := fs.Int64("seed", 42, "seed of the generated genome and reads; 1042 is held out for checking claims")
	seconds := fs.Float64("seconds", 15, "length of each workload's timed loop in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	chrome := fs.String("chrome", "", "with -trace 1, write the recorded spans to this `file` as Chrome trace JSON")
	out := fs.String("out", "", "append one JSON run record per workload to this `file`, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: parent.jsonl change.jsonl")
			return 2
		}
		sp, err := readSpec(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		ok, err := compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	var selected []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 || fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: pick -workload from %s or all; -trace is 0 or 1\n", strings.Join(names, ", "))
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH}
	opt := options{seconds: *seconds, minJobs: 5, setups: 3}
	t := newTracer()
	for _, w := range selected {
		fmt.Fprintf(stdout, "# %s seed=%d nproc=%d gomaxprocs=%d %s %s/%s\n",
			w.name, *seed, h.NumCPU, h.GOMAXPROCS, h.Go, h.OS, h.Arch)
		var res *result
		var err error
		if *traced == 1 {
			res, err = measureTraced(w, *seed, opt, t, stdout)
		} else {
			res, err = measureE2E(w, *seed, opt, stdout)
		}
		if err == nil {
			err = res.validate()
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if *out != "" {
			rec := runRecord{Workload: w.name, Seed: *seed, Trace: *traced == 1, Host: h, Result: res}
			if err := appendRecord(*out, &rec); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	if *chrome != "" && *traced == 1 {
		if err := writeFile(*chrome, t.writeChrome); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}

// report prints every metric with its unit, then the result as one JSON
// line, which is the run's last line of output.
func report(w io.Writer, res *result) error {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec *runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
