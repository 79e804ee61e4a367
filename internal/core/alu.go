package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sta"
)

// ALURankBits is the register width per pipeline cut of the complex
// ALU (carry-save partial sums plus operand/control forwarding).
const ALURankBits = 128

var (
	aluNetOnce sync.Once
	aluNet     *logic.Netlist
	// aluMemo caches the analyzed ALU per technology/wire-mode key, so
	// the four Figure 15 series analyze concurrently.
	aluMemo runner.Memo[string, *sta.Result]
)

// aluResult analyzes (with caching) the 32-bit complex ALU for one
// technology and wire mode. The first requester's span (via ctx)
// becomes the parent of the shared analysis span.
func aluResult(ctx context.Context, t *Tech, wire bool) (*sta.Result, error) {
	key := t.Name
	if !wire {
		key += "-nowire"
	}
	return aluMemo.Do(key, func() (*sta.Result, error) {
		aluNetOnce.Do(func() { aluNet = logic.BuildComplexALU(dataWidth) })
		return sta.AnalyzeNetlistCtx(ctx, aluNet, t.Lib, t.Wire, sta.Options{UseWire: wire})
	})
}

// ALUDepthSweep reproduces Figure 12 (and, with wire off, Figure 15a):
// pipeline the complex ALU (multiplier + stallable-divider datapath)
// from 1 to maxStages and report frequency and area at each depth. The
// ALU is analyzed once (cached) and eval computes the independent
// depths; the whole sweep runs under one "sweep:aludepth" span. Each
// point is a fault-injection site ("alu-point:tech:wire:nK"); under
// config.PartialResults a failed point comes back with its Err
// annotation instead of aborting the sweep.
func ALUDepthSweep(ctx context.Context, t *Tech, maxStages int, wire bool, eval Evaluator) ([]pipeline.Point, error) {
	ctx, sp := obs.Start(ctx, "sweep:aludepth",
		obs.KV("tech", t.Name), obs.Bool("wire", wire), obs.Int("max_stages", maxStages))
	defer sp.End()
	g, err := SweepGrid(ctx, GridALUDepth, t, maxStages, 0, 0, wire)
	if err != nil {
		return nil, err
	}
	return assemble(ctx, g, eval, func(i int, msg string) pipeline.Point {
		return pipeline.Point{Stages: i + 1, Err: msg}
	})
}

// aluGrid is the Figure 12 lattice: one point, and one checkpoint
// record, per depth, so a resumed or remotely-evaluated sweep replays
// journaled depths bit-identically. The shared ALU analysis is resolved
// lazily inside Eval, so building the grid costs nothing.
func aluGrid(t *Tech, maxStages int, wire bool) *Grid {
	cfg := pipeline.Config{
		RankBits: ALURankBits,
		Wire:     t.Wire,
		UseWire:  wire,
	}
	return &Grid{
		Kind: GridALUDepth, N: maxStages,
		// The "k0" segment names the default feedback-wire constant; it
		// stays so journals written when the constant was a sweep
		// parameter still replay.
		Key: func(i int) string {
			return checkpoint.PointID("alu", t.Name, wireTag(wire), "k0", "n"+strconv.Itoa(i+1))
		},
		Eval: func(ctx context.Context, i int) (any, error) {
			res, err := aluResult(ctx, t, wire)
			if err != nil {
				return nil, err
			}
			ctx, sp := obs.Start(ctx, "alu-point", obs.Int("stages", i+1))
			defer sp.End()
			if err := config.Get(ctx).Faults.Inject(ctx, fmt.Sprintf("alu-point:%s:%s:n%d", t.Name, wireTag(wire), i+1)); err != nil {
				return nil, err
			}
			return pipeline.PointAt(ctx, res, t.DFF(), cfg, i+1), nil
		},
	}
}

// wireTag names the wire mode inside fault-site identities.
func wireTag(wire bool) string {
	if wire {
		return "wire"
	}
	return "nowire"
}

// ALUResult exposes the analyzed complex-ALU timing (for the
// partitioning ablation bench).
func ALUResult(t *Tech, wire bool) (*sta.Result, error) {
	return aluResult(context.Background(), t, wire)
}

// NormalizePoints scales frequency and area to the 1-stage entry.
// Failed partial-sweep points (zero numerics) normalize to 0 — never
// NaN/Inf, which would poison JSON encoding downstream.
func NormalizePoints(pts []pipeline.Point) (freq, area []float64) {
	freq = make([]float64, len(pts))
	area = make([]float64, len(pts))
	for i, p := range pts {
		freq[i] = ratio(p.Freq, pts[0].Freq)
		area[i] = ratio(p.Area, pts[0].Area)
	}
	return freq, area
}

// ratio divides defensively: a zero denominator (the base point failed
// under fault injection) or zero numerator yields 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
