package pipeline

import (
	"context"
	"math"
	"strconv"

	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/sta"
)

// FeedbackK scales the physical span of cross-stage feedback wiring
// (bypasses, stalls, branch resolution) relative to the block's layout
// row length sqrt(area x stages). It is the single calibration constant
// of the wire-cost model; DESIGN.md lists it as an ablation knob.
const FeedbackK = 2.0

// Config parameterizes a depth sweep.
type Config struct {
	// RankBits is the number of signals crossing each pipeline cut
	// (register bits added per stage boundary).
	RankBits int
	// Wire is the interconnect model; UseWire toggles the feedback cost
	// (Figure 15's with/without-wire comparison).
	Wire    sta.Wire
	UseWire bool
	// FeedbackK overrides the package default when non-zero.
	FeedbackK float64
}

// Point is one depth of a sweep.
type Point struct {
	Stages     int
	Period     float64 // s
	Freq       float64 // Hz
	Area       float64 // m^2, combinational + pipeline registers
	StageLogic float64 // worst per-stage logic delay
	RegOver    float64 // clk-q + setup
	WireOver   float64 // feedback wire cost per cycle
	// Err annotates a point that failed under a partial-results sweep
	// (""= computed); its numeric fields are then zero.
	Err string
}

// PartitionMinMax splits the delay sequence into k contiguous chunks
// minimizing the maximum chunk sum (the balanced-retiming bound). It
// returns that maximum. Runs the classic binary-search-on-answer
// partition check.
func PartitionMinMax(profile []float64, k int) float64 {
	if len(profile) == 0 || k <= 0 {
		return 0
	}
	var total, maxOne float64
	for _, v := range profile {
		total += v
		if v > maxOne {
			maxOne = v
		}
	}
	if k == 1 {
		return total
	}
	feasible := func(limit float64) bool {
		chunks := 1
		var cur float64
		for _, v := range profile {
			if v > limit {
				return false
			}
			if cur+v > limit {
				chunks++
				cur = v
				if chunks > k {
					return false
				}
			} else {
				cur += v
			}
		}
		return true
	}
	lo, hi := maxOne, total
	for i := 0; i < 60 && hi-lo > 1e-9*total; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	// Snap to the realized maximum chunk of the greedy packing at the
	// found limit, which is exact.
	var realized, cur float64
	for _, v := range profile {
		if cur+v > hi {
			if cur > realized {
				realized = cur
			}
			cur = v
		} else {
			cur += v
		}
	}
	if cur > realized {
		realized = cur
	}
	return realized
}

// PointAt pipelines the analyzed block into exactly n stages. Each
// depth is independent, so sweeps may evaluate points concurrently. The
// partitioning is recorded as one "pipeline" span (and metrics
// observation) under the span carried by ctx.
func PointAt(ctx context.Context, r *sta.Result, dff *liberty.Cell, cfg Config, n int) Point {
	_, sp := obs.Start(ctx, "pipeline",
		obs.Int("stages", n), obs.Stage(obs.StagePipeline))
	defer sp.End()
	k := cfg.FeedbackK
	if k == 0 {
		k = FeedbackK
	}
	reg := dff.ClkToQ + dff.Setup
	logicDelay := PartitionMinMax(r.Profile, n)
	area := r.CombArea + float64(n*cfg.RankBits)*dff.Area
	var wire float64
	if cfg.UseWire {
		// Stages placed in a row: span grows as sqrt(area*n); the
		// feedback net is unrepeated RC over that span.
		span := k * math.Sqrt(area*float64(n))
		wire = cfg.Wire.Flight(span, 0)
	}
	period := logicDelay + reg + wire
	return Point{
		Stages:     n,
		Period:     period,
		Freq:       1 / period,
		Area:       area,
		StageLogic: logicDelay,
		RegOver:    reg,
		WireOver:   wire,
	}
}

// SweepDepth pipelines the analyzed block from 1 to maxStages and
// reports frequency and area at each depth.
func SweepDepth(ctx context.Context, r *sta.Result, dff *liberty.Cell, cfg Config, maxStages int) []Point {
	pts := make([]Point, 0, maxStages)
	for n := 1; n <= maxStages; n++ {
		pts = append(pts, PointAt(ctx, r, dff, cfg, n))
	}
	return pts
}

// OptimalDepth returns the stage count with the highest frequency.
func OptimalDepth(pts []Point) Point {
	best := pts[0]
	for _, p := range pts {
		if p.Freq > best.Freq {
			best = p
		}
	}
	return best
}

// StagedBlock is one pipeline stage of a multi-stage design (the core
// depth experiment): a named block with its own timing profile that can
// be subdivided by further cuts.
type StagedBlock struct {
	Name     string
	Result   *sta.Result
	Cuts     int // number of sub-stages this block is divided into
	RankBits int
}

// Delay returns the block's per-stage delay at its current cut count.
func (b *StagedBlock) Delay() float64 {
	return PartitionMinMax(b.Result.Profile, b.Cuts)
}

// CutCritical increments the cut count of the block with the largest
// current per-stage delay, mimicking the paper's procedure of manually
// cutting the stage on the critical path. It returns that block.
func CutCritical(blocks []*StagedBlock) *StagedBlock {
	var worst *StagedBlock
	for _, b := range blocks {
		if worst == nil || b.Delay() > worst.Delay() {
			worst = b
		}
	}
	worst.Cuts++
	return worst
}

// CoreTiming computes the clock period of a multi-block pipeline: the
// worst per-stage delay across blocks plus register overhead plus the
// depth-dependent feedback wire cost over the whole core. The timing
// walk is recorded as one "pipeline" span (and metrics observation)
// under the span carried by ctx.
func CoreTiming(ctx context.Context, blocks []*StagedBlock, dff *liberty.Cell, cfg Config) (period float64, point Point) {
	_, sp := obs.Start(ctx, "pipeline",
		obs.Int("blocks", len(blocks)), obs.Stage(obs.StagePipeline))
	defer sp.End()
	k := cfg.FeedbackK
	if k == 0 {
		k = FeedbackK
	}
	var worst float64
	var area float64
	depth := 0
	for _, b := range blocks {
		if d := b.Delay(); d > worst {
			worst = d
		}
		area += b.Result.CombArea
		depth += b.Cuts
		area += float64(b.Cuts*b.RankBits) * dff.Area
	}
	sp.Set("depth", strconv.Itoa(depth))
	reg := dff.ClkToQ + dff.Setup
	var wire float64
	if cfg.UseWire {
		span := k * math.Sqrt(area*float64(depth))
		wire = cfg.Wire.Flight(span, 0)
	}
	period = worst + reg + wire
	return period, Point{
		Stages:     depth,
		Period:     period,
		Freq:       1 / period,
		Area:       area,
		StageLogic: worst,
		RegOver:    reg,
		WireOver:   wire,
	}
}
