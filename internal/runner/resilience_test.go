package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

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

// TestMapPartialCollectsPanic: a panicking task becomes a TaskError
// wrapping a PanicError, and every task, failed or not, runs once.
func TestMapPartialCollectsPanic(t *testing.T) {
	runs := make([]atomic.Int64, 4)
	_, errs, err := MapPartial(context.Background(), 4, func(ctx context.Context, i int) (int, error) {
		runs[i].Add(1)
		switch i {
		case 1:
			return 0, errors.New("always")
		case 2:
			panic("always")
		}
		return i, nil
	})
	if err != nil || len(errs) != 2 || errs[0].Index != 1 || errs[1].Index != 2 {
		t.Fatalf("err=%v errs=%v", err, errs)
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("task error %v does not unwrap to PanicError", errs[1])
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times, want 1", i, got)
		}
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
