// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-scale N] <id>|all
//	experiments [-quick] [-scale N] -checkpoint <file>
//	experiments [-quick] [-scale N] -restore <file>
//	experiments [-quick] [-scale N] -timeline <out.json> [-inject]
//
// where <id> is one of: fig5 fig6 fig7 fig8 fig12 fig13 fig14 fig15
// table1 table3 comm super hybrid footprint gpucap swopt ablation
// scaling faults tenancy. The scaling id is the scaling study: the
// multi-node scale-out strong/weak-scaling report, including the
// overlapped-halo-exchange-vs-BSP comparison and the partitioner sweep
// (hash / minimizer / weight-aware balanced) on a repeat-heavy workload.
// The faults id is the fault-injection study: a mid-phase node loss
// replayed under increasing periodic-checkpoint cadences, reporting the
// recovery overhead (discarded work, detection and restore stalls,
// re-partitioned shard bytes) of each.
// The tenancy id is the multi-tenant fleet study: an 8-node fleet
// time-shares a stream of assembly jobs under checkpoint-based
// preemption, sweeping arrival rate against uniform and skewed job-size
// mixes (p50/p95 latency, throughput, preemption counts, utilization,
// saturation knee) and comparing the FIFO, strict-priority and
// fair-share policies at the knee.
// The -checkpoint/-restore pair demonstrates checkpoint/restore of the
// distributed runtime: -checkpoint pauses the scale-out run mid-compaction
// and writes the versioned state blob to the file (atomically — temp file
// plus rename, so an interrupted save never leaves a truncated blob);
// -restore (same workload flags) resumes it to completion and verifies
// the result bit for bit against the uninterrupted run. The -timeline
// flag captures an 8-node torus overlapped run with telemetry enabled,
// writes the Chrome-trace JSON (open in Perfetto) to the file, and prints
// the utilization table and critical-path report; adding -inject kills a
// node mid-phase under checkpoint cadence 2, putting the elastic
// recovery — fault instant, detection, restore, re-partitioning, capture
// barriers — on the same trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nmppak/internal/experiments"
)

// usage prints the command lines and exits with status 2.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-quick] [-scale N] <fig5|fig6|fig7|fig8|fig12|fig13|fig14|fig15|table1|table3|comm|super|hybrid|footprint|gpucap|swopt|ablation|scaling|faults|tenancy|all>")
	fmt.Fprintln(os.Stderr, "       experiments [-quick] [-scale N] -checkpoint <file>")
	fmt.Fprintln(os.Stderr, "       experiments [-quick] [-scale N] -restore <file>")
	fmt.Fprintln(os.Stderr, "       experiments [-quick] [-scale N] -timeline <out.json> [-inject]")
	os.Exit(2)
}

// checkFlags rejects the numeric flags that would otherwise fall back to
// a default without a word: a negative -scale would run the default
// genome, and a negative -workers one worker per core. -scale 0 means no
// override and -workers 0 one worker per core.
func checkFlags(scale, workers int) error {
	if scale < 0 {
		return fmt.Errorf("-scale %d is negative", scale)
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d is negative", workers)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		quick      = flag.Bool("quick", false, "use the small test workload")
		scale      = flag.Int("scale", 0, "override genome length (bp; 0 = the workload's own)")
		checkpoint = flag.String("checkpoint", "", "pause the scale-out run mid-compaction and write the checkpoint blob to this `file` (atomic temp-file + rename)")
		restore    = flag.String("restore", "", "resume the scale-out run from this checkpoint `file` and verify against the uninterrupted run")
		timeline   = flag.String("timeline", "", "capture an instrumented 8-node torus overlapped run and write the Chrome-trace JSON to this `file`")
		inject     = flag.Bool("inject", false, "with -timeline: kill a node mid-phase (checkpoint cadence 2) so the trace shows the elastic recovery")
		workers    = flag.Int("workers", 0, "host worker goroutines for the parallel simulation runtimes in every mode (0 = one per core, 1 = serial; results are identical either way)")
	)
	flag.Parse()
	modes := 0
	for _, on := range []bool{*checkpoint != "", *restore != "", *timeline != ""} {
		if on {
			modes++
		}
	}
	if err := checkFlags(*scale, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		usage()
	}
	if (flag.NArg() != 1 && modes == 0) || (flag.NArg() > 0 && modes > 0) || modes > 1 ||
		(*inject && *timeline == "") {
		usage()
	}
	w := experiments.DefaultWorkload()
	if *quick {
		w = experiments.QuickWorkload()
	}
	if *scale > 0 {
		w.GenomeLen = *scale
	}
	if *workers != 0 {
		w.Workers = *workers
	}
	ctx, err := experiments.NewContext(w)
	if err != nil {
		log.Fatal(err)
	}

	if *checkpoint != "" || *restore != "" {
		if err := runCheckpointMode(ctx, *checkpoint, *restore); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *timeline != "" {
		if err := runTimelineMode(ctx, *timeline, *inject); err != nil {
			log.Fatal(err)
		}
		return
	}

	var runs *experiments.SystemRuns
	needRuns := func() *experiments.SystemRuns {
		if runs == nil {
			log.Printf("simulating all system configurations...")
			r, err := experiments.RunSystems(ctx)
			if err != nil {
				log.Fatal(err)
			}
			runs = r
		}
		return runs
	}

	drivers := map[string]func() (*experiments.Report, error){
		"fig5":      func() (*experiments.Report, error) { return experiments.Fig5(ctx) },
		"fig6":      func() (*experiments.Report, error) { return experiments.Fig6(ctx) },
		"fig7":      func() (*experiments.Report, error) { return experiments.Fig7(ctx) },
		"fig8":      func() (*experiments.Report, error) { return experiments.Fig8(ctx) },
		"fig12":     func() (*experiments.Report, error) { return experiments.Fig12(ctx, needRuns()) },
		"fig13":     func() (*experiments.Report, error) { return experiments.Fig13(ctx, needRuns()) },
		"fig14":     func() (*experiments.Report, error) { return experiments.Fig14(ctx, needRuns()) },
		"fig15":     func() (*experiments.Report, error) { return experiments.Fig15(ctx) },
		"table1":    func() (*experiments.Report, error) { return experiments.Table1(ctx) },
		"table3":    func() (*experiments.Report, error) { return experiments.Table3(ctx) },
		"comm":      func() (*experiments.Report, error) { return experiments.Comm(ctx) },
		"super":     func() (*experiments.Report, error) { return experiments.Super(ctx, needRuns()) },
		"hybrid":    func() (*experiments.Report, error) { return experiments.HybridReport(ctx) },
		"footprint": func() (*experiments.Report, error) { return experiments.Footprint(ctx) },
		"gpucap":    func() (*experiments.Report, error) { return experiments.GPUCap(ctx) },
		"swopt":     func() (*experiments.Report, error) { return experiments.SWOpt(ctx) },
		"ablation":  func() (*experiments.Report, error) { return experiments.Ablation(ctx) },
		"scaling":   func() (*experiments.Report, error) { return experiments.Scaling(ctx) },
		"faults":    func() (*experiments.Report, error) { return experiments.Faults(ctx) },
		"tenancy":   func() (*experiments.Report, error) { return experiments.Tenancy(ctx) },
	}
	order := []string{"fig5", "fig6", "fig7", "fig8", "table1", "fig12", "fig13", "fig14",
		"fig15", "comm", "super", "table3", "hybrid", "footprint", "gpucap", "swopt", "ablation",
		"scaling", "faults", "tenancy"}

	id := flag.Arg(0)
	if id == "all" {
		for _, name := range order {
			r, err := drivers[name]()
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println(r.String())
		}
		return
	}
	d, ok := drivers[id]
	if !ok {
		log.Fatalf("unknown experiment %q", id)
	}
	r, err := d()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.String())
}

// runTimelineMode captures an instrumented run — optionally with an
// injected node loss — and writes the Chrome-trace JSON to the given file.
func runTimelineMode(ctx *experiments.Context, out string, inject bool) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	capture := experiments.Timeline
	if inject {
		capture = experiments.FaultTimeline
	}
	rep, err := capture(ctx, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Println(rep.String())
	fmt.Printf("timeline written to %s\n", out)
	return nil
}

// runCheckpointMode writes or consumes a checkpoint blob file. The save
// side hands the path straight to CheckpointSave, which publishes the
// blob atomically (temp file + rename).
func runCheckpointMode(ctx *experiments.Context, checkpointTo, restoreFrom string) error {
	if checkpointTo != "" {
		rep, err := experiments.CheckpointSave(ctx, checkpointTo)
		if err != nil {
			return err
		}
		fmt.Println(rep.String())
		return nil
	}
	f, err := os.Open(restoreFrom)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := experiments.RestoreLoad(ctx, f)
	if rep != nil {
		fmt.Println(rep.String())
	}
	return err
}
