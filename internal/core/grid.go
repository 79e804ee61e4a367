package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/runner"
)

// Grid kinds, matching the /v1/sweeps/{kind} URL segment (biodeg/api
// re-exports the same literals).
const (
	GridALUDepth  = "alu-depth"
	GridCoreDepth = "core-depth"
	GridWidth     = "width"
)

// Grid is one design-space sweep viewed as a flat point lattice: N
// points, each with a stable checkpoint key (Key) and an evaluator
// (Eval) returning the point's JSON-clean value. Every sweep is
// assembled from its grid through an Evaluator — the worker pool
// (EvalPool) or the serial reference (EvalLocal) — and that one
// enumeration order and key set is what makes a parallel sweep
// byte-identical to a serial one.
type Grid struct {
	Kind string
	// N is the point count; valid indices are 0..N-1.
	N int
	// Key names point i for checkpointing; the worker pool journals
	// each point under it.
	Key func(i int) string
	// Eval computes point i. The concrete value type depends on Kind
	// (pipeline.Point, uarch.Stats, or WidthPoint); it marshals to the
	// same JSON either way.
	Eval func(ctx context.Context, i int) (any, error)

	// skeleton is the core-depth grid's memoized serial cut-placement
	// walk, shared by its Eval and its assembly (nil for other kinds).
	skeleton func(ctx context.Context) ([]DepthPoint, error)
}

// SweepDefaults fills the sweep-request bounds left unset (<= 0): a
// 12-stage ALU sweep and core depths 9-15. The HTTP sweep handlers
// apply it to the bounds a request leaves out.
func SweepDefaults(maxStages, minDepth, maxDepth int) (int, int, int) {
	if maxStages <= 0 {
		maxStages = 12
	}
	if minDepth <= 0 {
		minDepth = 9
	}
	if maxDepth <= 0 {
		maxDepth = 15
	}
	return maxStages, minDepth, maxDepth
}

// SweepGrid builds the point lattice for one sweep kind over t, with
// or without wire delay. Bounds of kinds that do not read them are
// ignored; the width sweep exists only with wire delay. Building a grid
// is cheap — expensive prep (netlist analysis, the serial cut-placement
// walk) is deferred into the first Eval call, so a caller that only
// needs keys never pays it.
func SweepGrid(ctx context.Context, kind string, t *Tech, maxStages, minDepth, maxDepth int, wire bool) (*Grid, error) {
	switch kind {
	case GridALUDepth:
		if maxStages <= 0 {
			return nil, fmt.Errorf("alu-depth grid: max_stages %d out of range", maxStages)
		}
		return aluGrid(t, maxStages, wire), nil
	case GridCoreDepth:
		if maxDepth < minDepth || minDepth <= 0 {
			return nil, fmt.Errorf("core-depth grid: depth bounds [%d, %d] out of range", minDepth, maxDepth)
		}
		return depthGrid(t, minDepth, maxDepth, wire), nil
	case GridWidth:
		if !wire {
			return nil, fmt.Errorf("width grid: no wire-free variant")
		}
		return widthGrid(t), nil
	}
	return nil, fmt.Errorf("unknown sweep kind %q", kind)
}

// PointValue is one evaluated grid point in wire-neutral form: the
// point's JSON value, or its error annotation under a partial-results
// sweep.
type PointValue struct {
	Index int
	Value json.RawMessage
	// Err annotates a failed point ("" = Value holds the result).
	Err string
}

// Evaluator evaluates a set of grid indices, returning one PointValue
// per index, any order. EvalPool (the worker pool) is the one the
// sweeps run on; EvalLocal is the serial reference the tests compare
// it against.
type Evaluator func(ctx context.Context, g *Grid, indices []int) ([]PointValue, error)

// allIndices is 0..n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// assemble runs eval over the whole grid and decodes each point into
// its slot of the result, in index order. It validates coverage (every
// index exactly once, every value either annotated or non-empty); an
// annotated failure aborts the sweep, or under config.PartialResults
// takes the slot failed(i, annotation) returns.
func assemble[T any](ctx context.Context, g *Grid, eval Evaluator, failed func(i int, msg string) T) ([]T, error) {
	vals, err := eval(ctx, g, allIndices(g.N))
	if err != nil {
		return nil, err
	}
	partial := config.Get(ctx).PartialResults
	out := make([]T, g.N)
	seen := make([]bool, g.N)
	for _, v := range vals {
		if v.Index < 0 || v.Index >= g.N {
			return nil, fmt.Errorf("%s sweep: evaluator returned index %d outside grid [0, %d)", g.Kind, v.Index, g.N)
		}
		if seen[v.Index] {
			return nil, fmt.Errorf("%s sweep: evaluator returned index %d twice", g.Kind, v.Index)
		}
		seen[v.Index] = true
		switch {
		case v.Err != "" && !partial:
			return nil, fmt.Errorf("point %s: %s", g.Key(v.Index), v.Err)
		case v.Err != "":
			out[v.Index] = failed(v.Index, v.Err)
		case len(v.Value) == 0:
			return nil, fmt.Errorf("%s sweep: evaluator returned empty value for index %d", g.Kind, v.Index)
		default:
			if err := json.Unmarshal(v.Value, &out[v.Index]); err != nil {
				return nil, fmt.Errorf("point %s: decoding value: %w", g.Key(v.Index), err)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%s sweep: evaluator left index %d (%s) unevaluated", g.Kind, i, g.Key(i))
		}
	}
	return out, nil
}

// EvalPool evaluates grid indices on the worker pool — the Evaluator
// every sweep uses. Each point runs
// under its own checkpoint key (runner.Checkpointed), fault-injection
// site, span, and retry budget, and the partial-results posture
// annotates failed points exactly the way EvalLocal does, so the
// output is byte-identical to a serial evaluation.
func EvalPool(ctx context.Context, g *Grid, indices []int) ([]PointValue, error) {
	point := func(ctx context.Context, i int) (json.RawMessage, error) {
		return runner.Checkpointed(ctx, g.Key(indices[i]), func(ctx context.Context) (json.RawMessage, error) {
			v, err := g.Eval(ctx, indices[i])
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		})
	}
	var (
		vals []json.RawMessage
		errs []*runner.TaskError
		err  error
	)
	if config.Get(ctx).PartialResults {
		vals, errs, err = runner.MapPartial(ctx, len(indices), point)
	} else {
		vals, err = runner.Map(ctx, len(indices), point)
	}
	if err != nil {
		return nil, err
	}
	out := make([]PointValue, len(indices))
	for i, v := range vals {
		out[i] = PointValue{Index: indices[i], Value: v}
	}
	for _, te := range errs {
		out[te.Index] = PointValue{Index: indices[te.Index], Err: runner.ErrLabel(te.Err)}
	}
	return out, nil
}

// EvalLocal evaluates grid indices in the calling process, one by one,
// honoring the context's partial-results posture the way EvalPool
// does. It is the reference Evaluator the determinism tests compare
// the worker pool against.
func EvalLocal(ctx context.Context, g *Grid, indices []int) ([]PointValue, error) {
	partial := config.Get(ctx).PartialResults
	out := make([]PointValue, 0, len(indices))
	for _, i := range indices {
		v, err := g.Eval(ctx, i)
		if err != nil {
			if !partial {
				return nil, fmt.Errorf("point %s: %w", g.Key(i), err)
			}
			out = append(out, PointValue{Index: i, Err: runner.ErrLabel(err)})
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("point %s: encoding value: %w", g.Key(i), err)
		}
		out = append(out, PointValue{Index: i, Value: b})
	}
	return out, nil
}
