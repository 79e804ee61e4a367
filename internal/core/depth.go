package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/uarch"
)

// DepthPoint is one pipeline depth of the Figure 11 experiment.
type DepthPoint struct {
	Depth  int
	Period float64
	Freq   float64
	Area   float64
	// CutStage is the stage the last cut landed in ("" for baseline).
	CutStage string
	// Cuts is the per-stage sub-stage count at this depth.
	Cuts map[StageName]int
	// IPC and Perf (IPC x frequency) per benchmark.
	IPC  map[string]float64
	Perf map[string]float64
	// Errors annotates benchmarks whose IPC simulation failed under a
	// partial-results sweep (bench -> short error); those benchmarks are
	// absent from IPC/Perf.
	Errors map[string]string
}

// CoreDepthSweep reproduces the paper's depth procedure (Figure 11,
// and with wire off Figure 15b): start from the 9-stage baseline
// (front-end width 1, three execution pipes) and repeatedly cut the
// stage on the critical path, re-simulating IPC for each resulting
// design (the cut placement differs between technologies because their
// critical stages differ — Section 5.5). The cut placement is
// inherently serial, so the cheap timing walk runs once, up front; the
// expensive part — seven benchmark IPC simulations per depth — fans out
// as one point, checkpoint record and fault site
// ("depth-point:tech:wire:dN:bench") per (depth, benchmark) pair, in
// depth-major order.
func CoreDepthSweep(ctx context.Context, t *Tech, minDepth, maxDepth int, wire bool) ([]DepthPoint, error) {
	if maxDepth < minDepth || minDepth <= 0 {
		return nil, fmt.Errorf("core-depth sweep: depth bounds [%d, %d] out of range", minDepth, maxDepth)
	}
	ctx, sp := obs.Start(ctx, "sweep:coredepth",
		obs.KV("tech", t.Name), obs.Bool("wire", wire),
		obs.Int("min_depth", minDepth), obs.Int("max_depth", maxDepth))
	defer sp.End()
	pts, err := depthSkeleton(ctx, t, minDepth, maxDepth, wire)
	if err != nil {
		return nil, err
	}
	benches := Benchmarks()
	nb := len(benches)
	stats, err := sweep(ctx, len(pts)*nb, depthKey(t, wire, pts),
		func(ctx context.Context, i int) (uarch.Stats, error) {
			return depthPairEval(ctx, t, wire, pts[i/nb], benches[i%nb])
		},
		func(i int, msg string) uarch.Stats {
			pt := &pts[i/nb]
			if pt.Errors == nil {
				pt.Errors = map[string]string{}
			}
			pt.Errors[benches[i%nb]] = msg
			return uarch.Stats{}
		})
	if err != nil {
		return nil, err
	}
	for i, st := range stats {
		pt, b := &pts[i/nb], benches[i%nb]
		if _, failed := pt.Errors[b]; failed {
			continue
		}
		pt.IPC[b] = st.IPC
		pt.Perf[b] = st.IPC * pt.Freq
	}
	return pts, nil
}

// depthKey names the checkpoint record of core-depth sweep index i:
// the (depth, benchmark) pair at pts[i/len(Benchmarks())].
func depthKey(t *Tech, wire bool, pts []DepthPoint) func(i int) string {
	benches := Benchmarks()
	return func(i int) string {
		return checkpoint.PointID("depth", t.Name, wireTag(wire),
			"d"+strconv.Itoa(pts[i/len(benches)].Depth), benches[i%len(benches)])
	}
}

// depthSkeleton runs the paper's serial cut-placement walk: starting
// from the 9-stage baseline (front-end width 1, three execution pipes),
// repeatedly cut the critical stage up to maxDepth, recording timing,
// area, and cut placement for every depth >= minDepth. The walk is
// cheap (no IPC simulation) and deterministic. IPC/Perf maps come back
// empty.
func depthSkeleton(ctx context.Context, t *Tech, minDepth, maxDepth int, wire bool) ([]DepthPoint, error) {
	const fe, be = 1, 3
	blocks, err := coreBlocks(ctx, t, fe, be, wire)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.Config{Wire: t.Wire, UseWire: wire}
	dff := t.DFF()
	var pts []DepthPoint
	lastCut := ""
	for depth := int(numStages); depth <= maxDepth; depth++ {
		if depth > int(numStages) {
			lastCut = pipeline.CutCritical(blocks).Name
		}
		if depth < minDepth {
			continue
		}
		period, tp := pipeline.CoreTiming(ctx, blocks, dff, cfg)
		cuts := map[StageName]int{}
		for i, b := range blocks {
			cuts[StageName(i)] = b.Cuts
		}
		pts = append(pts, DepthPoint{
			Depth:    depth,
			Period:   period,
			Freq:     tp.Freq,
			Area:     tp.Area,
			CutStage: lastCut,
			Cuts:     cuts,
			IPC:      map[string]float64{},
			Perf:     map[string]float64{},
		})
	}
	return pts, nil
}

// depthPairEval simulates one (depth, benchmark) pair of the Figure 11
// sweep — its expensive unit.
func depthPairEval(ctx context.Context, t *Tech, wire bool, pt DepthPoint, bench string) (uarch.Stats, error) {
	const fe, be = 1, 3
	ctx, sp := obs.Start(ctx, "depth-point",
		obs.Int("depth", pt.Depth), obs.KV("bench", bench))
	defer sp.End()
	site := fmt.Sprintf("depth-point:%s:%s:d%d:%s", t.Name, wireTag(wire), pt.Depth, bench)
	if err := config.Get(ctx).Faults.Inject(ctx, site); err != nil {
		return uarch.Stats{}, err
	}
	return BenchIPCCtx(ctx, bench, uarchConfig(fe, be, pt.Cuts))
}

// NormalizeDepth scales a sweep's Freq/Area/Perf to its first point
// (the paper normalizes to the 9-stage baseline).
func NormalizeDepth(pts []DepthPoint) []DepthPoint {
	if len(pts) == 0 {
		return pts
	}
	base := pts[0]
	out := make([]DepthPoint, len(pts))
	for i, p := range pts {
		q := p
		q.Freq = ratio(p.Freq, base.Freq)
		q.Area = ratio(p.Area, base.Area)
		q.Perf = map[string]float64{}
		for b, v := range p.Perf {
			// A benchmark that failed at the base point (partial sweep)
			// has no baseline; report 0 rather than NaN/Inf.
			q.Perf[b] = ratio(v, base.Perf[b])
		}
		out[i] = q
	}
	return out
}

// BestDepth returns the depth with the highest performance for the
// given benchmark.
func BestDepth(pts []DepthPoint, bench string) int {
	best, bestV := 0, 0.0
	for _, p := range pts {
		if v := p.Perf[bench]; v > bestV {
			best, bestV = p.Depth, v
		}
	}
	return best
}
