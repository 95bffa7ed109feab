package scaleout

import (
	"testing"

	"nmppak/internal/trace"
)

// fuzzSeedBlob builds a tiny valid checkpoint blob of cfg on tr for the
// corpus: flipped and truncated variants of real bytes probe much deeper
// than random noise.
func fuzzSeedBlob(t interface{ Fatal(...any) }, tr *trace.Trace, cfg Config) []byte {
	blob, err := Checkpoint(nil, tr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzRestoreBlob feeds arbitrary bytes into the checkpoint decode and
// restore paths. The contract under fuzzing: corrupted input must produce
// a clean error — never a panic, and never an allocation sized by an
// unvalidated length field (the structural caps in validate() bound every
// count before it sizes anything). The corpus holds a static-partition
// blob and a rebalancing one, and each decoded blob is restored under the
// config whose partitioner it names, so mutated RebalanceState sections
// reach the rebalance restore path.
func FuzzRestoreBlob(f *testing.F) {
	tr := &trace.Trace{K: 32}
	cfg := DefaultConfig(2)
	rbCfg := DefaultConfig(2)
	rbCfg.Partitioner = NewRebalancePartitioner(12, 1)
	for _, c := range []Config{cfg, rbCfg} {
		blob := fuzzSeedBlob(f, tr, c)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		for _, i := range []int{len(checkpointMagic) + 1, len(blob) / 2, len(blob) - 3} {
			mut := append([]byte(nil), blob...)
			mut[i] ^= 0x40
			f.Add(mut)
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
		c := cfg
		if ck.Partitioner == rbCfg.Partitioner.Name() {
			c = rbCfg
		}
		if _, err := Restore(tr, c, data); err != nil {
			return
		}
	})
}
