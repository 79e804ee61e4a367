package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
)

// TestALUSweepReplayBitIdentical is the acceptance property at the
// sweep level: a second run over the same journal replays every point
// bit-identically without recomputing — even under rate=1 fault
// injection, because a journal hit short-circuits the task body and the
// injection draw inside it.
func TestALUSweepReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	jnl, _, err := checkpoint.Open(context.Background(),
		filepath.Join(t.TempDir(), "journal.bdj"), checkpoint.Meta{Tool: "test", Label: "core"})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()

	base := config.WithContext(context.Background(), config.Config{Workers: 4})
	ctx := runner.WithCheckpoint(base, jnl)
	pts1, err := ALUDepthSweep(ctx, tech, 6, true, EvalPool)
	if err != nil {
		t.Fatal(err)
	}
	if jnl.Len() != 6 {
		t.Fatalf("journal holds %d records after a 6-point sweep", jnl.Len())
	}

	// Second run: every point must fault at rate=1 if it computes — so a
	// clean, identical result proves every point replayed.
	in := fault.New(mustSpec(t, "seed=7,rate=1,kinds=error,stages=alu-point"))
	skippedBefore := obs.Count(obs.StageCheckpointSkipped)
	pts2, err := ALUDepthSweep(fault.WithInjector(ctx, in), tech, 6, true, EvalPool)
	if err != nil {
		t.Fatalf("replay run computed instead of replaying: %v", err)
	}
	if !reflect.DeepEqual(pts1, pts2) {
		t.Fatalf("replay differs from original:\n%+v\nvs\n%+v", pts1, pts2)
	}
	if got := obs.Count(obs.StageCheckpointSkipped) - skippedBefore; got != 6 {
		t.Errorf("checkpoint.skipped grew by %d, want 6", got)
	}
	if got := in.Snapshot().Total; got != 0 {
		t.Errorf("injector fired %d times under full replay, want 0", got)
	}
}

// TestWidthSweepResumesAcrossJournalReopen covers the crash shape: the
// first (partial-chaos) run journals its successes, a fresh journal
// handle over the same file resumes, and the final grid is identical to
// an uninterrupted fault-free sweep.
func TestWidthSweepResumesAcrossJournalReopen(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	path := filepath.Join(t.TempDir(), "journal.bdj")
	meta := checkpoint.Meta{Tool: "test", Label: "width"}

	// Reference: uninterrupted, fault-free.
	base := config.WithContext(context.Background(), config.Config{Workers: 4})
	want, err := WidthSweep(base, tech, EvalPool)
	if err != nil {
		t.Fatal(err)
	}

	// First run under chaos, fail-fast: some prefix of the grid commits
	// before the first fault aborts the sweep.
	jnl, _, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(mustSpec(t, "seed=3,rate=0.3,kinds=error,stages=width-point"))
	_, sweepErr := WidthSweep(fault.WithInjector(runner.WithCheckpoint(base, jnl), in), tech, EvalPool)
	if sweepErr == nil {
		t.Skip("seed faulted nothing on this grid; nothing to resume")
	}
	committed := jnl.Len()
	if committed == 0 {
		t.Skip("fault hit before any point committed; nothing to resume")
	}
	jnl.Close()

	// Resume with a fresh handle (a new process), faults off.
	jnl2, rec, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.Records != committed {
		t.Fatalf("recovered %d records, committed %d", rec.Records, committed)
	}
	got, err := WidthSweep(runner.WithCheckpoint(base, jnl2), tech, EvalPool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed sweep differs from the uninterrupted one")
	}
	if st := jnl2.Stats(); st.Replayed < int64(committed) {
		t.Errorf("replayed %d points, want at least the %d recovered", st.Replayed, committed)
	}
}
