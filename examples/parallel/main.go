// Parallel execution: run the same 64-node scale-out simulation under
// every runtime discipline — overlapped halo exchange, BSP supersteps,
// and elastic recovery from a mid-phase node loss — twice each: once
// with a pool of one worker (Workers=1, every engine stepped inline) and
// once with one worker per GOMAXPROCS thread (Workers=0). Each pair must
// be cycle-exact: identical Result structs, down to every phase counter.
//
// The runtime splits the compaction phase into epochs — ranges of
// iterations with no checkpoint capture or migration inside — and
// pre-steps every node's engine through a whole epoch on the worker pool
// before draining the epoch's schedule from the recorded durations. An
// engine's iteration durations never depend on when the schedule starts
// them, so wall-clock speedup comes without any change in simulated
// behavior; on a single-core host the two timings match.
package main

import (
	"fmt"
	"log"
	"reflect"
	"runtime"
	"time"

	"nmppak"
)

func main() {
	g, err := nmppak.GenerateGenome(nmppak.GenomeConfig{
		Length: 200_000, Seed: 1,
		RepeatFraction: 0.3, RepeatUnit: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := nmppak.SimulateReads(g, nmppak.ReadConfig{
		ReadLen: 100, Coverage: 30, ErrorRate: 0.01, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr, _, err := nmppak.CaptureTrace(reads, 32, 3, 200)
	if err != nil {
		log.Fatal(err)
	}

	const nodes = 64
	run := func(workers int, mut func(*nmppak.ScaleOutConfig)) (*nmppak.ScaleOutResult, time.Duration) {
		cfg := nmppak.DefaultScaleOutConfig(nodes)
		cfg.Overlap = true
		cfg.Workers = workers
		if mut != nil {
			mut(&cfg)
		}
		start := time.Now()
		res, err := nmppak.SimulateScaleOut(reads, tr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}

	// compare runs one discipline serial-then-parallel and enforces the
	// cycle-exactness contract: every field of the two results — phase
	// cycle counts, communication fraction, link statistics, assembly
	// outcome — must be identical. No tolerance.
	compare := func(name string, mut func(*nmppak.ScaleOutConfig)) {
		serial, serialWall := run(1, mut) // a pool of one
		parallel, parWall := run(0, mut)  // one worker per thread
		fmt.Printf("%-9s serial %8.1f ms | parallel %8.1f ms | speedup %5.2fx | %d model cycles\n",
			name, serialWall.Seconds()*1e3, parWall.Seconds()*1e3,
			serialWall.Seconds()/parWall.Seconds(), parallel.TotalCycles)
		if !reflect.DeepEqual(serial, parallel) {
			log.Fatalf("%s: parallel result diverges from serial:\nserial:   %+v\nparallel: %+v",
				name, serial, parallel)
		}
	}

	fmt.Printf("simulating %d nodes, %d compaction iterations, GOMAXPROCS=%d\n\n",
		nodes, len(tr.Iterations), runtime.GOMAXPROCS(0))

	// Overlapped halo exchange: the whole phase is one epoch.
	compare("overlap", nil)

	// BSP supersteps: compute/exchange/barrier rounds drained in order.
	compare("bsp", func(cfg *nmppak.ScaleOutConfig) { cfg.Overlap = false })

	// Elastic recovery: kill a node halfway through the fault-free run's
	// span under checkpoint cadence 2, so the pool-stepped run must
	// reproduce the capture, detection, restore, and re-partitioned
	// survivor segments byte for byte too.
	golden, _ := run(1, func(cfg *nmppak.ScaleOutConfig) { cfg.CheckpointEvery = 2 })
	at := nmppak.Cycle(float64(golden.Compact.Total()) / 2)
	compare("elastic", func(cfg *nmppak.ScaleOutConfig) {
		cfg.CheckpointEvery = 2
		cfg.Faults = nmppak.NodeLossAt(nodes/2, at, 500)
	})

	fmt.Println("\nall disciplines identical: pre-stepping on the pool is cycle-exact.")
}
