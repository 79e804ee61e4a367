package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Pool telemetry on the process-default registry: how deep the task
// queue is, how many worker goroutines are live across all active
// pools, how many are busy right now (utilization = busy/workers), and
// completed tasks by outcome. All pure atomics on the task path.
var (
	queueDepth = telemetry.Default().Gauge("biodeg_runner_queue_depth",
		"Submitted pool tasks not yet picked up by a worker.").With()
	workersLive = telemetry.Default().Gauge("biodeg_runner_workers",
		"Live worker goroutines across all active pools.").With()
	workersBusy = telemetry.Default().Gauge("biodeg_runner_workers_busy",
		"Workers currently executing a task.").With()
	tasksTotal = telemetry.Default().Counter("biodeg_runner_tasks_total",
		"Completed pool tasks by outcome.", "outcome")
)

// WorkersFor resolves the worker count Map will use for ctx: the
// context-carried config when one is attached (biodeg.Session attaches
// its own), else the process default.
func WorkersFor(ctx context.Context) int { return config.Get(ctx).WorkerCount() }

// PanicError wraps a recovered panic so callers see an ordinary error
// instead of a crash. Index is the panicking task's index in Map, or
// -1 for a panic Memo.Do recovered, which belongs to no task.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("runner: computation panicked: %v\n%s", e.Value, e.Stack)
	}
	return fmt.Sprintf("runner: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// TaskError records one failed task of a partial run: the task index
// and its error.
type TaskError struct {
	Index int
	Err   error
}

func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// ErrLabel compresses err to a single short line for span attributes
// and per-point table annotations: panics reduce to their value (no
// stack, which would differ between runs), multi-line errors to their
// first line.
func ErrLabel(err error) string {
	if err == nil {
		return ""
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	const max = 200
	if len(msg) > max {
		msg = msg[:max] + "..."
	}
	return msg
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool
// and returns the n results in index order. The first error (or panic,
// converted to *PanicError) cancels the derived context; tasks not yet
// started are skipped and Map returns that first error. A cancelled
// parent context stops the pool promptly with ctx.Err().
//
// Workers claim contiguous chunks of indices (chunkSize) rather than
// one index at a time, so dispatch cost amortizes when n is much larger
// than the pool; every per-index behavior below is unchanged by it.
//
// When span tracing is enabled (internal/obs), each task runs inside a
// "runner.task" span parented to the span active in ctx at the Map
// call. The span's duration is the execute time; its queue_wait_us
// attribute is the time the task spent waiting between batch submission
// and a worker picking it up, so a trace shows the queue-wait versus
// execute split per task.
//
// Each task runs exactly once: every layer below is a deterministic
// function of its inputs, so a retry would recompute the same failure,
// and the only deadline is the one the caller's context carries.
func Map[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if _, err := pool(ctx, n, chunkSize(ctx, n), false, into(out, fn)); err != nil {
		return nil, err
	}
	return out, nil
}

// MapPartial is Map without fail-fast: every task runs to completion,
// successes land in the result slice at their index, and failures come
// back as TaskErrors sorted by index — the degraded-sweep primitive
// behind config.PartialResults. The error return is non-nil only when
// the parent context was cancelled, in which case both slices are
// incomplete.
func MapPartial[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []*TaskError, error) {
	out := make([]T, n)
	errs, err := pool(ctx, n, chunkSize(ctx, n), true, into(out, fn))
	return out, errs, err
}

// into adapts a result-returning task to the pool's error-only task,
// storing each success at its index in out.
func into[T any](out []T, fn func(ctx context.Context, i int) (T, error)) func(ctx context.Context, i int) error {
	return func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}
}

// chunkSize is the scheduling batch size for n tasks under the
// context's worker count: about four chunks per worker, so every worker
// cycles through several (load balance under uneven task cost) while
// dispatch amortizes when n is much larger than the pool.
func chunkSize(ctx context.Context, n int) int {
	c := n / (4 * WorkersFor(ctx))
	if c < 1 {
		return 1
	}
	return c
}

// pool is the shared worker pool behind Map and MapPartial: partial
// selects collect-and-continue over first-error cancellation; workers
// claim contiguous runs of chunk >= 1 indices (1 = one at a time).
func pool(ctx context.Context, n, chunk int, partial bool, fn func(ctx context.Context, i int) error) ([]*TaskError, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	numChunks := (n + chunk - 1) / chunk
	workers := WorkersFor(ctx)
	if workers > numChunks {
		workers = numChunks
	}
	traced := obs.Enabled()
	submit := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
		errMu    sync.Mutex
		taskErrs []*TaskError
	)
	fail := func(i int, err error) {
		if partial {
			errMu.Lock()
			taskErrs = append(taskErrs, &TaskError{Index: i, Err: err})
			errMu.Unlock()
			return
		}
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// call is one panic-recovered run of task i.
	call := func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				err = &PanicError{Index: i, Value: r, Stack: stack}
			}
		}()
		return fn(ctx, i)
	}
	var ran atomic.Int64
	run := func(i int) {
		ran.Add(1)
		queueDepth.Dec()
		workersBusy.Inc()
		defer workersBusy.Dec()
		tctx := ctx
		if traced {
			var sp *obs.Span
			tctx, sp = obs.Start(ctx, "runner.task",
				obs.Int("index", i),
				obs.KV("queue_wait_us", strconv.FormatInt(time.Since(submit).Microseconds(), 10)))
			defer sp.End()
		}
		if err := call(tctx, i); err != nil {
			tasksTotal.With("error").Inc()
			fail(i, err)
		} else {
			tasksTotal.With("ok").Inc()
		}
	}
	queueDepth.Add(int64(n))
	workersLive.Add(int64(workers))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= numChunks || ctx.Err() != nil {
					return
				}
				hi := (t + 1) * chunk
				if hi > n {
					hi = n
				}
				for i := t * chunk; i < hi; i++ {
					// Fail-fast cancellation skips the rest of a claimed
					// chunk the same way it skips unclaimed tasks.
					if ctx.Err() != nil {
						return
					}
					run(i)
				}
			}
		}()
	}
	wg.Wait()
	workersLive.Add(-int64(workers))
	// Tasks skipped by cancellation never reached run; drain their
	// queue-depth contribution so the gauge returns to zero.
	queueDepth.Add(ran.Load() - int64(n))
	if partial {
		sort.Slice(taskErrs, func(i, j int) bool { return taskErrs[i].Index < taskErrs[j].Index })
		return taskErrs, ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, ctx.Err()
}

// memoEntry is one in-flight or completed computation.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Memo is a per-key singleflight cache: the first caller of Do for a
// key runs the computation while concurrent callers for the same key
// block on its completion; callers for other keys proceed
// independently. Successful results are cached for the lifetime of the
// Memo; errors are returned to every waiter of that flight but not
// cached, so the next caller retries. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// Do returns the cached value for key, or runs fn to compute it.
func (mm *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = make(map[K]*memoEntry[V])
	}
	if e, ok := mm.m[key]; ok {
		mm.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	mm.m[key] = e
	mm.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				e.err = &PanicError{Index: -1, Value: r, Stack: stack}
			}
		}()
		e.val, e.err = fn()
	}()
	if e.err != nil {
		// Do not cache failures: drop the entry so later calls retry.
		mm.mu.Lock()
		delete(mm.m, key)
		mm.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Forget drops the entry for key so the next Do recomputes it. Waiters
// of an in-flight computation under this key still receive its result;
// only future Do calls start fresh. This turns a Memo into a pure
// singleflight layer: callers that keep results in their own bounded
// cache Forget each key as its flight completes, so the Memo holds
// in-flight entries only and never grows without bound.
func (mm *Memo[K, V]) Forget(key K) {
	mm.mu.Lock()
	delete(mm.m, key)
	mm.mu.Unlock()
}

// Len reports the number of cached (successful) entries plus in-flight
// computations — a cheap observability hook for the metrics report.
func (mm *Memo[K, V]) Len() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return len(mm.m)
}
