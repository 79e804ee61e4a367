package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
)

// retryCtx attaches a config with the given retry budget and a fast
// backoff so tests stay in the millisecond range.
func retryCtx(retries int) context.Context {
	return config.WithContext(context.Background(), config.Config{
		Workers: 4, Retries: retries, RetryBase: time.Millisecond,
	})
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	const n = 6
	attempts := make([]atomic.Int64, n)
	out, err := Map(retryCtx(3), n, func(ctx context.Context, i int) (int, error) {
		if a := attempts[i].Add(1); a <= 2 {
			return 0, fmt.Errorf("transient %d/%d", i, a)
		}
		return i * 10, nil
	})
	if err != nil {
		t.Fatalf("Map with retries: %v", err)
	}
	for i, v := range out {
		if v != i*10 {
			t.Errorf("out[%d] = %d", i, v)
		}
		if got := attempts[i].Load(); got != 3 {
			t.Errorf("task %d ran %d attempts, want 3", i, got)
		}
	}
}

func TestRetryAttemptNumberReachesFault(t *testing.T) {
	var seen atomic.Int64
	err := each(retryCtx(2), 1, func(ctx context.Context, i int) error {
		a := fault.AttemptFromContext(ctx)
		seen.Add(1)
		if a < 2 {
			return fmt.Errorf("fail attempt %d", a)
		}
		return nil
	})
	if err != nil || seen.Load() != 3 {
		t.Fatalf("err=%v attempts=%d, want nil/3 (attempt number not threaded?)", err, seen.Load())
	}
}

func TestRetryExhaustionReturnsFinalError(t *testing.T) {
	var attempts atomic.Int64
	err := each(retryCtx(2), 1, func(ctx context.Context, i int) error {
		attempts.Add(1)
		return errors.New("permanent")
	})
	if err == nil || err.Error() != "permanent" {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("ran %d attempts, want 3 (1 + 2 retries)", attempts.Load())
	}
}

func TestRetriedPanicRecovered(t *testing.T) {
	var attempts atomic.Int64
	err := each(retryCtx(1), 1, func(ctx context.Context, i int) error {
		if attempts.Add(1) == 1 {
			panic("chaos")
		}
		return nil
	})
	if err != nil || attempts.Load() != 2 {
		t.Fatalf("err=%v attempts=%d, want nil/2 (panic not retried)", err, attempts.Load())
	}
}

func TestBackoffBounds(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		window := base << attempt
		if window > MaxBackoff || window <= 0 {
			window = MaxBackoff
		}
		for _, key := range []string{"task:0", "task:1", "task:99"} {
			d := Backoff(base, attempt, key)
			if d < window/2 || d > window {
				t.Errorf("Backoff(%v, %d, %s) = %v outside [%v, %v]",
					base, attempt, key, d, window/2, window)
			}
			if d2 := Backoff(base, attempt, key); d2 != d {
				t.Errorf("Backoff not deterministic: %v vs %v", d, d2)
			}
		}
	}
	if d := Backoff(0, 0, "k"); d < config.DefaultRetryBase/2 || d > config.DefaultRetryBase {
		t.Errorf("zero base did not default: %v", d)
	}
	if d := Backoff(time.Second, 60, "k"); d > MaxBackoff {
		t.Errorf("attempt 60 exceeded cap: %v", d)
	}
}

func TestMapPartialCollectsErrors(t *testing.T) {
	const n = 9
	out, errs, err := MapPartial(context.Background(), n, func(ctx context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("odd %d", i)
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("MapPartial: %v", err)
	}
	if len(errs) != 4 {
		t.Fatalf("got %d task errors, want 4: %v", len(errs), errs)
	}
	for k, te := range errs {
		if te.Index != 2*k+1 {
			t.Errorf("errs[%d].Index = %d, want sorted odd indices", k, te.Index)
		}
		if te.Error() == "" || te.Unwrap() == nil {
			t.Errorf("errs[%d] malformed: %v", k, te)
		}
	}
	for i := 0; i < n; i += 2 {
		if out[i] != i {
			t.Errorf("out[%d] = %d, success overwritten", i, out[i])
		}
	}
}

func TestMapPartialPanicAndRetryInteraction(t *testing.T) {
	attempts := make([]atomic.Int64, 4)
	_, errs, err := MapPartial(retryCtx(1), 4, func(ctx context.Context, i int) (int, error) {
		attempts[i].Add(1)
		if i == 2 {
			panic("always")
		}
		return i, nil
	})
	if err != nil || len(errs) != 1 || errs[0].Index != 2 {
		t.Fatalf("err=%v errs=%v", err, errs)
	}
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("task error %v does not unwrap to PanicError", errs[0])
	}
	if attempts[2].Load() != 2 {
		t.Fatalf("panicking task ran %d attempts, want 2", attempts[2].Load())
	}
}

func TestMapPartialParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MapPartial(ctx, 100, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStageTimeoutBoundsAttempts(t *testing.T) {
	ctx := config.WithContext(context.Background(), config.Config{
		Workers: 2, Retries: 1, RetryBase: time.Millisecond, StageTimeout: 20 * time.Millisecond,
	})
	start := time.Now()
	err := each(ctx, 1, func(ctx context.Context, i int) error {
		select {
		case <-time.After(10 * time.Second):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("stage timeout did not bound the attempts (%v)", e)
	}
}

func TestRetryStopsOnParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(config.WithContext(context.Background(), config.Config{
		Workers: 1, Retries: 1000, RetryBase: 50 * time.Millisecond,
	}))
	var attempts atomic.Int64
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := each(ctx, 1, func(ctx context.Context, i int) error {
		attempts.Add(1)
		return errors.New("always failing")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("retry loop outlived parent cancellation (%v, %d attempts)", e, attempts.Load())
	}
}

func TestErrLabel(t *testing.T) {
	if got := ErrLabel(nil); got != "" {
		t.Errorf("nil: %q", got)
	}
	if got := ErrLabel(errors.New("line one\nline two")); got != "line one" {
		t.Errorf("multiline: %q", got)
	}
	pe := &PanicError{Index: 3, Value: "boom", Stack: []byte("goroutine 1...\nmany\nlines")}
	if got := ErrLabel(fmt.Errorf("wrapped: %w", pe)); got != "panic: boom" {
		t.Errorf("panic: %q", got)
	}
	long := strings200()
	if got := ErrLabel(errors.New(long + long)); len(got) > 210 {
		t.Errorf("not truncated: %d chars", len(got))
	}
}

func strings200() string {
	b := make([]byte, 200)
	for i := range b {
		b[i] = 'x'
	}
	return string(b)
}

// each runs an error-only task body through Map.
func each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, func(ctx context.Context, i int) (struct{}, error) { return struct{}{}, fn(ctx, i) })
	return err
}
