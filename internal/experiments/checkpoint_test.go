package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"nmppak/internal/trace"
)

// CheckpointSave used to compute the pause boundary as iters/2 with no
// clamp: a single-iteration trace rounded down to boundary 0 (a blob that
// replays the whole run on restore) and an empty trace slid through to
// the simulator. The boundary must land in [1, iters] and an empty trace
// must fail cleanly before anything touches the filesystem.
func TestCheckpointSaveClampsBoundary(t *testing.T) {
	c := tenancyCtx(t)
	tr, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	short := &Context{W: c.W, Genome: c.Genome, Reads: c.Reads}
	short.tr = &trace.Trace{K: tr.K, Iterations: tr.Iterations[:1]}
	rep, err := CheckpointSave(short, filepath.Join(dir, "ck.blob"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Measured["checkpoint_iter"]; got != 1 {
		t.Fatalf("single-iteration trace checkpointed at boundary %v, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "ck.blob")); err != nil {
		t.Fatalf("blob not written: %v", err)
	}

	empty := &Context{W: c.W, Genome: c.Genome, Reads: c.Reads}
	empty.tr = &trace.Trace{K: tr.K}
	if _, err := CheckpointSave(empty, filepath.Join(dir, "no.blob")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "no.blob")); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}
