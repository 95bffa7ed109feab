package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"time"

	"nmppak/internal/assemble"
	"nmppak/internal/compact"
	"nmppak/internal/dna"
	"nmppak/internal/experiments"
	"nmppak/internal/fault"
	"nmppak/internal/kmer"
	"nmppak/internal/nmp"
	"nmppak/internal/pakgraph"
	"nmppak/internal/readsim"
	"nmppak/internal/scaleout"
	"nmppak/internal/sim"
	"nmppak/internal/tenancy"
	"nmppak/internal/topo"
	"nmppak/internal/trace"
	"nmppak/internal/walk"
)

// workload is one named input set and the job run on it.
type workload struct {
	name string
	// warmup jobs run before the timed loop.
	warmup int
	// setup builds the inputs from the seed and the references every
	// job's output is checked against. tiny selects inputs small enough
	// for unit tests.
	setup func(seed int64, tiny bool) (*instance, error)
}

// instance is a workload after setup.
type instance struct {
	// job makes one call to a public entry point and returns the check of
	// its output, run off the clock.
	job func() (check func() error, err error)
	// traced performs the same job through the layers' own public
	// functions, recording a span around each call.
	traced func(t *tracer) error
}

var workloads = []workload{
	{name: "assemble-100x", warmup: 3, setup: setupAssemble},
	{name: "scaleout-mesh64", warmup: 3, setup: setupMesh},
	{name: "scaleout-skewed64", warmup: 2, setup: setupSkewed},
	{name: "fleet-fairshare", warmup: 2, setup: setupFleet},
}

// minGenomeFrac is the least share of the reference's canonical 31-mers
// an assembly job must recover.
const minGenomeFrac = 0.99

// pinnedCycles are the simulated machine cycles of the seed-42 inputs:
// TotalCycles of each scale-out anchor and the fleet makespan. A host-side
// optimisation must leave them unchanged.
var pinnedCycles = map[string]sim.Cycle{
	"scaleout-mesh64":             306616,
	"scaleout-skewed64/rebalance": 5773601,
	"scaleout-skewed64/elastic":   774150,
	"fleet-fairshare":             13000023,
}

// checkPin compares a seed-42 result with its pinned value.
func checkPin(seed int64, tiny bool, key string, got sim.Cycle) error {
	if seed != 42 || tiny {
		return nil
	}
	if want := pinnedCycles[key]; got != want {
		return fmt.Errorf("%s: seed 42 gives %d simulated cycles, pinned %d", key, got, want)
	}
	return nil
}

// newContext generates the genome and reads of a workload. The program
// under test only ever sees the reads.
func newContext(w experiments.Workload, seed int64, tiny bool) (*experiments.Context, error) {
	w.Seed = seed
	if tiny {
		w.GenomeLen, w.Coverage = 8_000, 30
	}
	return experiments.NewContext(w)
}

// ---- assemble-100x ----

func setupAssemble(seed int64, tiny bool) (*instance, error) {
	w := experiments.QuickWorkload()
	w.GenomeLen, w.Coverage = 100_000, 100
	ctx, err := newContext(w, seed, tiny)
	if err != nil {
		return nil, err
	}
	cfg := assemble.Config{K: w.K, MinCount: w.MinCount, Batches: 1}
	oracle := newKmerOracle(ctx.Genome.Replicons, 31)
	ref, err := assemble.Run(ctx.Reads, cfg)
	if err != nil {
		return nil, err
	}
	want := contigSetHash(ref.Contigs)
	check := func(contigs []dna.Seq) error {
		if h := contigSetHash(contigs); h != want {
			return fmt.Errorf("contig set hash %016x, setup reference %016x", h, want)
		}
		if f := oracle.recall(contigs); f < minGenomeFrac {
			return fmt.Errorf("contigs recover %.4f of the reference 31-mers, want >= %.2f", f, minGenomeFrac)
		}
		return nil
	}
	return &instance{
		job: func() (func() error, error) {
			out, err := assemble.Run(ctx.Reads, cfg)
			if err != nil {
				return nil, err
			}
			return func() error { return check(out.Contigs) }, nil
		},
		traced: func(t *tracer) error {
			contigs, err := traceAssemble(t, ctx.Reads, cfg)
			if err != nil {
				return err
			}
			return check(contigs)
		},
	}, nil
}

// traceAssemble runs the stages assemble.Run runs for one batch, in the
// same order and with the same options, one span per stage.
func traceAssemble(t *tracer, reads []readsim.Read, cfg assemble.Config) ([]dna.Seq, error) {
	var res *kmer.Result
	var g *pakgraph.Graph
	var cres *compact.Result
	var contigs []dna.Seq
	if _, err := t.span("kmer.count", func() (err error) {
		res, err = kmer.Count(reads, kmer.Config{K: cfg.K, Workers: cfg.Workers, MinCount: cfg.MinCount})
		return err
	}); err != nil {
		return nil, err
	}
	t.count("kmer.distinct", float64(len(res.Kmers)))
	if _, err := t.span("pakgraph.build", func() (err error) {
		g, err = pakgraph.Build(res)
		return err
	}); err != nil {
		return nil, err
	}
	t.count("pakgraph.macronodes", float64(g.Len()))
	if _, err := t.span("compact.run", func() (err error) {
		cres, err = compact.Run(g, compact.Options{Workers: cfg.Workers, Threshold: cfg.CompactThreshold,
			MaxIters: cfg.MaxIters, Flow: cfg.Flow})
		return err
	}); err != nil {
		return nil, err
	}
	t.count("compact.iterations", float64(cres.Iterations))
	t.span("walk.contigs", func() error {
		contigs = append(cres.Completed, walk.Contigs(g, walk.Options{})...)
		return nil
	})
	t.count("walk.contigs", float64(len(contigs)))
	return contigs, nil
}

// contigSetHash hashes the contigs as a multiset, so the order the
// parallel stages emit them in does not matter.
func contigSetHash(contigs []dna.Seq) uint64 {
	hs := make([]uint64, len(contigs))
	for i, c := range contigs {
		hs[i] = c.Hash()
	}
	slices.Sort(hs)
	h := fnv.New64a()
	var b [8]byte
	for _, x := range hs {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// ---- scale-out workloads ----

// simCase is one scale-out configuration of a workload with its
// references.
type simCase struct {
	label  string
	cfg    scaleout.Config // Workers = 0
	anchor *scaleout.Result
	// blob0 is the iteration-0 checkpoint the traced pass restores from;
	// nil for elastic configurations, which Restore rejects.
	blob0 []byte
}

// newSimCase builds the Workers=1 anchor and, where the configuration can
// be checkpointed, the iteration-0 blob.
func newSimCase(label string, reads []readsim.Read, tr *trace.Trace, cfg scaleout.Config) (*simCase, error) {
	cfg.Workers = 1
	anchor, err := scaleout.Simulate(reads, tr, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s anchor: %w", label, err)
	}
	cfg.Workers = 0
	c := &simCase{label: label, cfg: cfg, anchor: anchor}
	if cfg.CheckpointEvery == 0 && cfg.Faults.Empty() {
		if c.blob0, err = scaleout.Checkpoint(reads, tr, cfg, 0); err != nil {
			return nil, fmt.Errorf("%s checkpoint: %w", label, err)
		}
	}
	return c, nil
}

func (c *simCase) check(res *scaleout.Result) error {
	if !reflect.DeepEqual(res, c.anchor) {
		return fmt.Errorf("%s: result differs from the Workers=1 anchor (%d vs %d cycles)",
			c.label, res.TotalCycles, c.anchor.TotalCycles)
	}
	return nil
}

// simInstance runs every case once per job, back to back.
func simInstance(reads []readsim.Read, tr *trace.Trace, pinErr error, cases ...*simCase) *instance {
	return &instance{
		job: func() (func() error, error) {
			res := make([]*scaleout.Result, len(cases))
			for i, c := range cases {
				var err error
				if res[i], err = scaleout.Simulate(reads, tr, c.cfg); err != nil {
					return nil, err
				}
			}
			return func() error {
				if pinErr != nil {
					return pinErr
				}
				for i, c := range cases {
					if err := c.check(res[i]); err != nil {
						return err
					}
				}
				return nil
			}, nil
		},
		traced: func(t *tracer) error {
			for _, c := range cases {
				if err := traceSimCase(t, reads, tr, c); err != nil {
					return err
				}
			}
			return pinErr
		},
	}
}

// traceSimCase splits scaleout.Simulate into the layers it calls. The
// prelude (CountSharded, BuildShardGraphs) runs as job-path spans, then
// the replay runs as Restore from the iteration-0 blob, whose decode and
// ShardTrace are timed separately so the replay's own time is the rest.
// An elastic case cannot be restored: its job path is Simulate itself and
// the prelude spans become probes. Workers=1 reruns time the serial
// replay; nmp.Simulate over the shard traces and topo.Exchange over the
// halo matrices time the node engine and the network on their own.
func traceSimCase(t *tracer, reads []readsim.Read, tr *trace.Trace, c *simCase) error {
	cfg, serial := c.cfg, c.cfg
	serial.Workers = 1
	restorable := c.blob0 != nil
	prelude := t.span
	if !restorable {
		prelude = t.probe
	}
	var sc *scaleout.ShardedCount
	cs, err := prelude("scaleout.count_sharded", func() (err error) {
		sc, err = scaleout.CountSharded(reads, cfg)
		return err
	})
	if err != nil {
		return err
	}
	bsg, err := prelude("scaleout.build_shard_graphs", func() error {
		_, err := sc.BuildShardGraphs(cfg)
		return err
	})
	if err != nil {
		return err
	}
	for src, row := range sc.CountExchange {
		for dst, b := range row {
			if src != dst {
				t.count("scaleout.count_exchange_bytes", float64(b))
			}
		}
	}

	var st *scaleout.ShardedTrace
	shard, _ := t.probe("scaleout.shard_trace", func() error {
		st = scaleout.ShardTrace(tr, cfg.Nodes, cfg.Partitioner)
		return nil
	})
	t.count("scaleout.halo_bytes", float64(st.HaloBytes))
	if _, err := t.probe("nmp.step", func() error {
		for _, sub := range st.Traces {
			if _, err := nmp.Simulate(sub, cfg.NMP); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, sub := range st.Traces {
		for _, it := range sub.Iterations {
			if len(it.Nodes) > 0 {
				t.count("nmp.node_iterations", 1)
			}
		}
	}
	net, err := cfg.Topo.Build(cfg.Nodes)
	if err != nil {
		return err
	}
	t.probe("topo.exchange", func() error {
		for _, m := range st.Halo {
			topo.Exchange(net, m)
		}
		return nil
	})
	for _, m := range st.Halo {
		for _, row := range m {
			for _, b := range row {
				if b > 0 {
					t.count("topo.messages", 1)
				}
			}
		}
	}

	name, parts := "scaleout.simulate", cs+bsg+shard
	entry := func(cfg scaleout.Config) (*scaleout.Result, error) { return scaleout.Simulate(reads, tr, cfg) }
	if restorable {
		dec, err := traceCodec(t, c.blob0)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		name, parts = "scaleout.restore", dec+shard
		entry = func(cfg scaleout.Config) (*scaleout.Result, error) { return scaleout.Restore(tr, cfg, c.blob0) }
	}
	var res *scaleout.Result
	replay := func(rec func(string, func() error) (time.Duration, error), name string, cfg scaleout.Config) (time.Duration, error) {
		d, err := rec(name, func() (err error) {
			res, err = entry(cfg)
			return err
		})
		if err == nil {
			err = c.check(res)
		}
		return d, err
	}
	d, err := replay(t.span, name, cfg)
	if err != nil {
		return err
	}
	ds, err := replay(t.probe, name+"_serial", serial)
	if err != nil {
		return err
	}
	t.derive("scaleout.replay", (d - parts).Seconds())
	t.derive("scaleout.replay_serial", (ds - parts).Seconds())
	t.count("scaleout.rebalances", float64(res.Rebalances))
	t.count("scaleout.migrated_bytes", float64(res.MigratedBytes))
	t.count("scaleout.elastic_captures", float64(res.Checkpoints))
	t.count("scaleout.recoveries", float64(res.Recoveries))
	return nil
}

func setupMesh(seed int64, tiny bool) (*instance, error) {
	ctx, err := newContext(experiments.QuickWorkload(), seed, tiny)
	if err != nil {
		return nil, err
	}
	tr, err := ctx.Trace()
	if err != nil {
		return nil, err
	}
	cfg := scaleout.DefaultConfig(64)
	if tiny {
		cfg = scaleout.DefaultConfig(4)
	}
	cfg.Overlap = true
	c, err := newSimCase("scaleout-mesh64", ctx.Reads, tr, cfg)
	if err != nil {
		return nil, err
	}
	return simInstance(ctx.Reads, tr, checkPin(seed, tiny, c.label, c.anchor.TotalCycles), c), nil
}

func setupSkewed(seed int64, tiny bool) (*instance, error) {
	w := experiments.QuickWorkload()
	w.RepeatFraction, w.RepeatUnit = 0.45, 150
	ctx, err := newContext(w, seed, tiny)
	if err != nil {
		return nil, err
	}
	tr, err := ctx.Trace()
	if err != nil {
		return nil, err
	}
	nodes, tx, ty := 64, 8, 8
	if tiny {
		nodes, tx, ty = 4, 2, 2
	}
	bsp := scaleout.DefaultConfig(nodes)
	bsp.Topo = topo.Torus(tx, ty)
	bsp.Partitioner = scaleout.NewRebalancePartitioner(12, 1)
	rebal, err := newSimCase("scaleout-skewed64/rebalance", ctx.Reads, tr, bsp)
	if err != nil {
		return nil, err
	}

	// The node loss lands halfway through the fault-free compaction phase.
	el := scaleout.DefaultConfig(nodes)
	el.Overlap = true
	el.CheckpointEvery = 2
	golden, err := scaleout.Simulate(ctx.Reads, tr, el)
	if err != nil {
		return nil, err
	}
	el.Faults = fault.NodeLossAt(nodes/2, sim.Cycle(float64(golden.Compact.Total())/2), 500)
	elastic, err := newSimCase("scaleout-skewed64/elastic", ctx.Reads, tr, el)
	if err != nil {
		return nil, err
	}
	if elastic.anchor.Recoveries == 0 {
		return nil, fmt.Errorf("%s: the node loss triggered no recovery", elastic.label)
	}
	pinErr := checkPin(seed, tiny, rebal.label, rebal.anchor.TotalCycles)
	if pinErr == nil {
		pinErr = checkPin(seed, tiny, elastic.label, elastic.anchor.TotalCycles)
	}
	return simInstance(ctx.Reads, tr, pinErr, rebal, elastic), nil
}

// ---- fleet-fairshare ----

func setupFleet(seed int64, tiny bool) (*instance, error) {
	ctx, err := newContext(experiments.QuickWorkload(), seed, tiny)
	if err != nil {
		return nil, err
	}
	tr, err := ctx.Trace()
	if err != nil {
		return nil, err
	}
	fleetNodes, narrow, wide := 8, 2, 6
	if tiny {
		fleetNodes, narrow, wide = 4, 1, 3
	}
	demands := []int{narrow, wide, narrow, narrow, wide, narrow}
	if tiny {
		demands = demands[:3]
	}
	seeds := map[int][]byte{}
	solo := map[int]*scaleout.Result{}
	for _, n := range []int{narrow, wide} {
		cfg := scaleout.DefaultConfig(n)
		if seeds[n], err = scaleout.Checkpoint(ctx.Reads, tr, cfg, 0); err != nil {
			return nil, err
		}
		cfg.Workers = 1
		if solo[n], err = scaleout.Restore(tr, cfg, seeds[n]); err != nil {
			return nil, err
		}
	}
	mkJobs := func(workers int) []tenancy.Job {
		jobs := make([]tenancy.Job, len(demands))
		for i, d := range demands {
			cfg := scaleout.DefaultConfig(d)
			cfg.Workers = workers
			jobs[i] = tenancy.Job{Name: fmt.Sprintf("t%d-n%d", i, d), Arrival: sim.Cycle(i * 50_000),
				Trace: tr, Config: cfg, Seed: seeds[d]}
		}
		return jobs
	}
	f := tenancy.Fleet{Nodes: fleetNodes, Policy: tenancy.FairShare{}, Quantum: 1 << 18}
	ref, err := f.Run(mkJobs(1))
	if err != nil {
		return nil, err
	}
	want := ref.String()
	pinErr := checkPin(seed, tiny, "fleet-fairshare", ref.Makespan)
	jobs := mkJobs(0)
	check := func(s *tenancy.Schedule) error {
		if pinErr != nil {
			return pinErr
		}
		if got := s.String(); got != want {
			return fmt.Errorf("schedule differs from the setup reference:\n%s\nwant:\n%s", got, want)
		}
		for i := range s.Tenants {
			ts := &s.Tenants[i]
			if !reflect.DeepEqual(ts.Result, solo[ts.Demand]) {
				return fmt.Errorf("tenant %s: result differs from its uninterrupted restore", ts.Name)
			}
		}
		return nil
	}
	return &instance{
		job: func() (func() error, error) {
			s, err := f.Run(jobs)
			if err != nil {
				return nil, err
			}
			return func() error { return check(s) }, nil
		},
		traced: func(t *tracer) error {
			var s *tenancy.Schedule
			run, err := t.span("tenancy.fleet_run", func() (err error) {
				s, err = f.Run(jobs)
				return err
			})
			if err != nil {
				return err
			}
			if err := check(s); err != nil {
				return err
			}
			var sessions time.Duration
			for i := range s.Tenants {
				ts := &s.Tenants[i]
				d, err := replaySessions(t, tr, jobs[i], ts, solo[ts.Demand])
				if err != nil {
					return err
				}
				sessions += d
				t.count("tenancy.preemptions", float64(ts.Preemptions))
				t.count("tenancy.slices", float64(ts.Slices))
				t.count("tenancy.checkpoint_bytes", float64(ts.CheckpointBytes))
			}
			t.derive("tenancy.scheduler", (run - sessions).Seconds())
			return nil
		},
	}, nil
}

// replaySessions repeats one tenant's life on the fleet outside the
// scheduler: as many ResumeSession / Step / Checkpoint rounds as it had
// slices, its iterations split evenly between them, then Finish. It
// returns the time spent in those calls. The first mid-run blob is also
// decoded and re-encoded on its own.
func replaySessions(t *tracer, tr *trace.Trace, job tenancy.Job, ts *tenancy.TenantStats, want *scaleout.Result) (time.Duration, error) {
	blob := job.Seed
	iters := len(tr.Iterations)
	var total time.Duration
	for slice := 0; slice < ts.Slices; slice++ {
		var ses *scaleout.Session
		d, err := t.probe("scaleout.resume_session", func() (err error) {
			ses, err = scaleout.ResumeSession(tr, job.Config, blob)
			return err
		})
		if err != nil {
			return 0, err
		}
		total += d
		if slice == ts.Slices-1 {
			var res *scaleout.Result
			d, err := t.probe("scaleout.session_step", func() (err error) {
				res, err = ses.Finish()
				return err
			})
			if err != nil {
				return 0, err
			}
			if !reflect.DeepEqual(res, want) {
				return 0, fmt.Errorf("tenant %s: replayed sessions give a different result", ts.Name)
			}
			return total + d, nil
		}
		d, _ = t.probe("scaleout.session_step", func() error {
			ses.Step(iters*(slice+1)/ts.Slices - ses.Next())
			return nil
		})
		total += d
		d, err = t.probe("scaleout.session_checkpoint", func() (err error) {
			blob, err = ses.Checkpoint()
			return err
		})
		if err != nil {
			return 0, err
		}
		total += d
		if slice == 0 {
			if _, err := traceCodec(t, blob); err != nil {
				return 0, fmt.Errorf("tenant %s: %w", ts.Name, err)
			}
		}
	}
	return 0, fmt.Errorf("tenant %s: no slices", ts.Name)
}

// traceCodec times decoding a checkpoint blob and encoding it again,
// checks the round trip is byte-identical, and returns the decode time.
func traceCodec(t *tracer, blob []byte) (time.Duration, error) {
	var ck *scaleout.CheckpointState
	dec, err := t.probe("checkpoint.decode", func() (err error) {
		ck, err = scaleout.UnmarshalCheckpoint(blob)
		return err
	})
	if err != nil {
		return 0, err
	}
	var enc []byte
	if _, err := t.probe("checkpoint.encode", func() (err error) {
		enc, err = ck.Marshal()
		return err
	}); err != nil {
		return 0, err
	}
	if !bytes.Equal(enc, blob) {
		return 0, fmt.Errorf("re-encoded checkpoint differs from the blob it was decoded from")
	}
	t.count("checkpoint.blob_bytes", float64(len(blob)))
	return dec, nil
}
