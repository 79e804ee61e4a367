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
// ALU is analyzed once (cached) and the depths are independent points,
// one checkpoint record each; the whole sweep runs under one
// "sweep:aludepth" span. Under config.PartialResults a failed point
// comes back with its Err annotation instead of aborting the sweep.
func ALUDepthSweep(ctx context.Context, t *Tech, maxStages int, wire bool) ([]pipeline.Point, error) {
	if maxStages <= 0 {
		return nil, fmt.Errorf("alu-depth sweep: max_stages %d out of range", maxStages)
	}
	ctx, sp := obs.Start(ctx, "sweep:aludepth",
		obs.KV("tech", t.Name), obs.Bool("wire", wire), obs.Int("max_stages", maxStages))
	defer sp.End()
	return sweep(ctx, maxStages, aluKey(t, wire),
		func(ctx context.Context, i int) (pipeline.Point, error) { return aluPoint(ctx, t, wire, i+1) },
		func(i int, msg string) pipeline.Point { return pipeline.Point{Stages: i + 1, Err: msg} })
}

// aluKey names the checkpoint record of ALU sweep index i (i+1
// stages). The "k0" segment names the default feedback-wire constant;
// it stays so journals written when the constant was a sweep parameter
// still replay.
func aluKey(t *Tech, wire bool) func(i int) string {
	return func(i int) string {
		return checkpoint.PointID("alu", t.Name, wireTag(wire), "k0", "n"+strconv.Itoa(i+1))
	}
}

// aluPoint pipelines the shared ALU analysis into the given number of
// stages. Each point is a fault-injection site
// ("alu-point:tech:wire:nK").
func aluPoint(ctx context.Context, t *Tech, wire bool, stages int) (pipeline.Point, error) {
	res, err := aluResult(ctx, t, wire)
	if err != nil {
		return pipeline.Point{}, err
	}
	ctx, sp := obs.Start(ctx, "alu-point", obs.Int("stages", stages))
	defer sp.End()
	if err := config.Get(ctx).Faults.Inject(ctx, fmt.Sprintf("alu-point:%s:%s:n%d", t.Name, wireTag(wire), stages)); err != nil {
		return pipeline.Point{}, err
	}
	cfg := pipeline.Config{RankBits: ALURankBits, Wire: t.Wire, UseWire: wire}
	return pipeline.PointAt(ctx, res, t.DFF(), cfg, stages), nil
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
