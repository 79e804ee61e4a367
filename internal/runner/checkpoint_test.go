package runner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeCheckpoint is an in-memory Checkpoint for exercising the pool's
// consult/commit cycle without disk.
type fakeCheckpoint struct {
	mu        sync.Mutex
	recs      map[string][]byte
	commitErr error
}

func newFakeCheckpoint() *fakeCheckpoint {
	return &fakeCheckpoint{recs: map[string][]byte{}}
}

func (f *fakeCheckpoint) Lookup(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.recs[key]
	return v, ok
}

func (f *fakeCheckpoint) Commit(_ context.Context, key string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.commitErr != nil {
		return f.commitErr
	}
	f.recs[key] = append([]byte(nil), value...)
	return nil
}

func TestCheckpointedReplaysWithoutComputing(t *testing.T) {
	cp := newFakeCheckpoint()
	cp.recs["k"] = []byte(`41.5`)
	ctx := WithCheckpoint(context.Background(), cp)
	var ran bool
	v, err := Checkpointed(ctx, "k", func(context.Context) (float64, error) {
		ran = true
		return 0, nil
	})
	if err != nil || v != 41.5 {
		t.Fatalf("Checkpointed = %v, %v; want 41.5 replayed", v, err)
	}
	if ran {
		t.Error("compute must not run for a journaled key")
	}
}

func TestCheckpointedCommitsFreshResults(t *testing.T) {
	cp := newFakeCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	v, err := Checkpointed(ctx, "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("Checkpointed = %v, %v", v, err)
	}
	if got, ok := cp.recs["k"]; !ok || string(got) != "7" {
		t.Fatalf("committed %q, want 7", got)
	}
}

func TestCheckpointedUndecodableRecordRecomputes(t *testing.T) {
	cp := newFakeCheckpoint()
	cp.recs["k"] = []byte(`"not an int`)
	ctx := WithCheckpoint(context.Background(), cp)
	v, err := Checkpointed(ctx, "k", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Checkpointed over a stale record = %v, %v; want recompute", v, err)
	}
	if string(cp.recs["k"]) != "3" {
		t.Errorf("recompute should overwrite the stale record, got %s", cp.recs["k"])
	}
}

func TestCheckpointedCommitFailureFailsTask(t *testing.T) {
	cp := newFakeCheckpoint()
	cp.commitErr = errors.New("disk full")
	ctx := WithCheckpoint(context.Background(), cp)
	if _, err := Checkpointed(ctx, "k", func(context.Context) (int, error) { return 1, nil }); err == nil {
		t.Fatal("a failed commit must fail the task, not drop durability silently")
	}
}

func TestCheckpointedNoSinkIsPlainCompute(t *testing.T) {
	for _, ctx := range []context.Context{
		context.Background(), // no checkpoint attached
		WithCheckpoint(context.Background(), newFakeCheckpoint()), // empty key below
	} {
		key := "k"
		if CheckpointFrom(ctx) != nil {
			key = ""
		}
		v, err := Checkpointed(ctx, key, func(context.Context) (int, error) { return 9, nil })
		if err != nil || v != 9 {
			t.Fatalf("Checkpointed = %v, %v; want plain compute", v, err)
		}
	}
}

// mapKeyed runs fn over [0, n) with each task journaled under key(i) —
// the way the sweep evaluator wraps every grid point in Checkpointed.
func mapKeyed[T any](ctx context.Context, n int, key func(i int) string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return Map(ctx, n, keyedTask(key, fn))
}

// mapPartialKeyed is mapKeyed under MapPartial.
func mapPartialKeyed[T any](ctx context.Context, n int, key func(i int) string, fn func(ctx context.Context, i int) (T, error)) ([]T, []*TaskError, error) {
	return MapPartial(ctx, n, keyedTask(key, fn))
}

func keyedTask[T any](key func(i int) string, fn func(ctx context.Context, i int) (T, error)) func(ctx context.Context, i int) (T, error) {
	return func(ctx context.Context, i int) (T, error) {
		return Checkpointed(ctx, key(i), func(ctx context.Context) (T, error) { return fn(ctx, i) })
	}
}

func TestMapKeyedSkipsJournaledTasks(t *testing.T) {
	cp := newFakeCheckpoint()
	// Pre-journal the even indices; only the odd ones should compute.
	for i := 0; i < 10; i += 2 {
		cp.recs["t/"+strconv.Itoa(i)] = []byte(strconv.Itoa(i * 100))
	}
	ctx := WithCheckpoint(context.Background(), cp)
	var computed atomic.Int64
	out, err := mapKeyed(ctx, 10, func(i int) string { return "t/" + strconv.Itoa(i) },
		func(_ context.Context, i int) (int, error) {
			computed.Add(1)
			return i * 100, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*100 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*100)
		}
	}
	if got := computed.Load(); got != 5 {
		t.Errorf("computed %d tasks, want 5 (evens replayed)", got)
	}
	if len(cp.recs) != 10 {
		t.Errorf("journal holds %d records after the sweep, want 10", len(cp.recs))
	}

	// A full re-run replays everything: zero computes, identical output.
	computed.Store(0)
	out2, err := mapKeyed(ctx, 10, func(i int) string { return "t/" + strconv.Itoa(i) },
		func(_ context.Context, i int) (int, error) {
			computed.Add(1)
			return -1, errors.New("must not run")
		})
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 {
		t.Errorf("re-run computed %d tasks, want 0", computed.Load())
	}
	for i := range out {
		if out2[i] != out[i] {
			t.Fatalf("replayed out[%d] = %d, want %d (bit-identical)", i, out2[i], out[i])
		}
	}
}

func TestMapPartialKeyedJournalsOnlySuccesses(t *testing.T) {
	cp := newFakeCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	fail := errors.New("boom")
	_, errs, err := mapPartialKeyed(ctx, 4, func(i int) string { return "p/" + strconv.Itoa(i) },
		func(_ context.Context, i int) (int, error) {
			if i == 2 {
				return 0, fail
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || errs[0].Index != 2 {
		t.Fatalf("errs = %v, want exactly index 2", errs)
	}
	if _, ok := cp.recs["p/2"]; ok {
		t.Error("a failed task must not be journaled")
	}
	if len(cp.recs) != 3 {
		t.Errorf("journal holds %d records, want the 3 successes", len(cp.recs))
	}

	// On resume the failed point computes, the successes replay.
	var computed atomic.Int64
	out, errs2, err := mapPartialKeyed(ctx, 4, func(i int) string { return "p/" + strconv.Itoa(i) },
		func(_ context.Context, i int) (int, error) {
			computed.Add(1)
			return i, nil
		})
	if err != nil || len(errs2) != 0 {
		t.Fatalf("resume: %v, errs %v", err, errs2)
	}
	if computed.Load() != 1 {
		t.Errorf("resume computed %d tasks, want 1 (the prior failure)", computed.Load())
	}
	if out[2] != 2 {
		t.Errorf("out[2] = %d, want 2", out[2])
	}
}

// TestMapKeyedEmptyKeyOptsOut checks a key function returning "" leaves
// that task unjournaled: it always computes, never commits.
func TestMapKeyedEmptyKeyOptsOut(t *testing.T) {
	cp := newFakeCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	for run := 0; run < 2; run++ {
		var computed atomic.Int64
		_, err := mapKeyed(ctx, 3, func(i int) string { return "" },
			func(_ context.Context, i int) (int, error) {
				computed.Add(1)
				return i, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if computed.Load() != 3 {
			t.Fatalf("run %d computed %d, want all 3", run, computed.Load())
		}
	}
	if len(cp.recs) != 0 {
		t.Errorf("opted-out tasks journaled %d records", len(cp.recs))
	}
}

// TestCheckpointPrecedence documents the slot convention: the first
// WithCheckpoint wins for readers of that context; rebinding creates a
// derived context whose checkpoint shadows the outer one.
func TestCheckpointPrecedence(t *testing.T) {
	outer, inner := newFakeCheckpoint(), newFakeCheckpoint()
	ctx := WithCheckpoint(context.Background(), outer)
	if CheckpointFrom(ctx) != Checkpoint(outer) {
		t.Fatal("outer checkpoint not visible")
	}
	ctx2 := WithCheckpoint(ctx, inner)
	if CheckpointFrom(ctx2) != Checkpoint(inner) {
		t.Fatal("inner checkpoint must shadow the outer on the derived context")
	}
	if CheckpointFrom(ctx) != Checkpoint(outer) {
		t.Fatal("original context must keep the outer checkpoint")
	}
}

func BenchmarkCheckpointedReplay(b *testing.B) {
	cp := newFakeCheckpoint()
	cp.recs["k"] = []byte(`{"a":1.5,"b":2.5}`)
	ctx := WithCheckpoint(context.Background(), cp)
	type point struct{ A, B float64 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Checkpointed(ctx, "k", func(context.Context) (point, error) {
			return point{}, fmt.Errorf("must not compute")
		}); err != nil {
			b.Fatal(err)
		}
	}
}
