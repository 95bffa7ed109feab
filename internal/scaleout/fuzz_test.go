package scaleout

import (
	"testing"

	"nmppak/internal/readsim"
	"nmppak/internal/trace"
)

// fuzzSeedBlob builds a small valid checkpoint blob of cfg on tr, paused
// before iteration at, for the corpus: flipped and truncated variants of
// real bytes probe much deeper than random noise.
func fuzzSeedBlob(t testing.TB, reads []readsim.Read, tr *trace.Trace, cfg Config, at int) []byte {
	blob, err := Checkpoint(reads, tr, cfg, at)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzRestoreBlob feeds arbitrary bytes into the checkpoint decode and
// restore paths. The contract under fuzzing: corrupted input must produce
// a clean error — never a panic, never a hang, and never an allocation
// sized by an unvalidated length field (the structural caps in validate()
// bound every count before it sizes anything). The corpus holds a
// static-partition blob and a rebalancing one on an empty trace, and the
// same two paused mid-run on a small real trace, whose engine sections
// carry live DRAM timing state that a restore steps onward. Each decoded
// blob is restored under the trace its digest names and the config whose
// partitioner it names, so mutated engine and RebalanceState sections
// reach the engine resume and the rebalance restore paths.
func FuzzRestoreBlob(f *testing.F) {
	empty := &trace.Trace{K: 32}
	reads := testReads(f, 3_000)
	small := testTrace(f, reads, 32, 3)
	cfg := DefaultConfig(2)
	rbCfg := DefaultConfig(2)
	rbCfg.Partitioner = NewRebalancePartitioner(12, 1)
	for _, c := range []Config{cfg, rbCfg} {
		for _, blob := range [][]byte{
			fuzzSeedBlob(f, nil, empty, c, 0),
			fuzzSeedBlob(f, reads, small, c, len(small.Iterations)/2),
		} {
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
			for _, i := range []int{len(checkpointMagic) + 1, len(blob) / 2, len(blob) - 3} {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 0x40
				f.Add(mut)
			}
		}
	}
	f.Add([]byte("NMPPAK-CKPT\n\x02\x00\x00\x00garbage"))
	f.Add([]byte(checkpointMagic + "\x02\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		// Structurally valid decodes must still restore without panicking:
		// either a clean run (a seed blob round-tripping) or a clean
		// mismatch error.
		if ck.Nodes != cfg.Nodes {
			return
		}
		tr := empty
		if ck.TraceDigest == small.Digest() {
			tr = small
		}
		c := cfg
		if ck.Partitioner == rbCfg.Partitioner.Name() {
			c = rbCfg
		}
		if _, err := Restore(tr, c, data); err != nil {
			return
		}
	})
}
