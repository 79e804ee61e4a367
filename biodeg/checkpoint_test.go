package biodeg

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/runner"
)

func TestWithCheckpointBindsJournal(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Checkpoint: dir})
	ctx, err := s.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp := runner.CheckpointFrom(ctx)
	if cp == nil {
		t.Fatal("bound context carries no checkpoint")
	}
	if got := config.Get(ctx).Checkpoint; got != dir {
		t.Errorf("bound config Checkpoint = %q, want %q", got, dir)
	}

	// Work journaled under this session is visible to a later session
	// on the same directory — the crash-resume path.
	if _, err := runner.Checkpointed(ctx, "unit/k", func(context.Context) (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.CheckpointStats(); st.Committed != 1 {
		t.Errorf("CheckpointStats = %+v, want 1 committed", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Checkpoint: dir})
	defer s2.Close()
	ctx2, err := s2.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, err := runner.Checkpointed(ctx2, "unit/k", func(context.Context) (int, error) {
		return 0, errors.New("must replay, not recompute")
	})
	if err != nil || v != 5 {
		t.Fatalf("resumed Checkpointed = %v, %v; want 5 replayed", v, err)
	}
	if st := s2.CheckpointStats(); st.Replayed != 1 || st.Records != 1 {
		t.Errorf("resumed CheckpointStats = %+v", st)
	}
}

// TestWithCheckpointRejectsChangedKnobs proves a journal directory
// written under one result-shaping posture cannot be silently resumed
// under another.
func TestWithCheckpointRejectsChangedKnobs(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Checkpoint: dir})
	if _, err := s.bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	spec, err := ParseFaults("seed=1,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	chaotic := New(Config{Checkpoint: dir, Faults: WithFaults(spec)})
	defer chaotic.Close()
	_, err = chaotic.bind(context.Background())
	if !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("bind with changed fault posture = %v, want ErrConfigMismatch", err)
	}
	// And the public surface reports it, not just bind.
	if _, err := chaotic.Widths(context.Background(), Organic()); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("Widths over a mismatched journal = %v, want ErrConfigMismatch", err)
	}
}

func TestSessionWithoutCheckpointNeedsNoClose(t *testing.T) {
	s := New(Config{})
	ctx, err := s.bind(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if runner.CheckpointFrom(ctx) != nil {
		t.Error("checkpoint attached without Config.Checkpoint")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on an unjournaled session: %v", err)
	}
	if st := s.CheckpointStats(); st != (checkpoint.Stats{}) {
		t.Errorf("CheckpointStats = %+v, want zero", st)
	}
}

// TestDigestTracksConfig: the journal-binding digest moves with the
// result-shaping knobs and ignores the execution-shaping ones.
func TestDigestTracksConfig(t *testing.T) {
	base := digest(Config{})
	if base == "" {
		t.Fatal("empty digest")
	}
	if d := digest(Config{Faults: WithFaults(FaultSpec{Seed: 1, Rate: 1})}); d == base {
		t.Error("fault spec did not move the digest")
	}
	if d := digest(Config{PartialResults: true}); d == base {
		t.Error("partial-results posture did not move the digest")
	}
	if d := digest(Config{Workers: 7, LibCache: "/tmp/lib", StageTimeout: time.Second}); d != base {
		t.Error("execution-shaping knobs moved the digest")
	}
	// Pinned values: journals written by earlier builds (which carried
	// the spec string in the config) must keep matching.
	spec, err := ParseFaults("seed=1,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if base != "3713031193a15100" {
		t.Errorf("zero-config digest = %s, want 3713031193a15100", base)
	}
	if d := digest(Config{Faults: WithFaults(spec), PartialResults: true}); d != "e22d132a12a2fce2" {
		t.Errorf("chaos digest = %s, want e22d132a12a2fce2", d)
	}
}
