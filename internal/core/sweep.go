package core

import (
	"context"

	"repro/internal/config"
	"repro/internal/runner"
)

// sweep evaluates the n points of one design-space sweep on the worker
// pool and returns them in index order, so a parallel sweep is
// byte-identical to a serial loop over eval. Each point replays from,
// or commits to, the checkpoint journal under key(i). A failed point
// aborts the sweep, or under config.PartialResults takes the slot
// failed(i, annotation) returns.
func sweep[T any](ctx context.Context, n int, key func(int) string,
	eval func(ctx context.Context, i int) (T, error), failed func(i int, msg string) T) ([]T, error) {
	point := func(ctx context.Context, i int) (T, error) {
		return runner.Checkpointed(ctx, key(i), func(ctx context.Context) (T, error) { return eval(ctx, i) })
	}
	if !config.Get(ctx).PartialResults {
		return runner.Map(ctx, n, point)
	}
	out, errs, err := runner.MapPartial(ctx, n, point)
	if err != nil {
		return nil, err
	}
	for _, te := range errs {
		out[te.Index] = failed(te.Index, runner.ErrLabel(te.Err))
	}
	return out, nil
}
