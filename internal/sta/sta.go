package sta

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/synth"
)

// Wire is the technology interconnect model.
type Wire struct {
	ResPerM float64 // ohm/m
	CapPerM float64 // F/m
	Pitch   float64 // average placed-cell linear dimension, m
	// LongFrac scales the block-dimension component of the average net
	// length (stochastic long-net share).
	LongFrac float64
}

// DefaultLongFrac is the long-net share of the average net length.
const DefaultLongFrac = 0.05

// NetLength estimates a net's routed length from its fanout and the
// block dimension.
func (w Wire) NetLength(fanout int, blockDim float64) float64 {
	lf := w.LongFrac
	if lf == 0 {
		lf = DefaultLongFrac
	}
	return w.Pitch*(1+0.5*float64(fanout)) + lf*blockDim
}

// Flight returns the Elmore RC flight time of a net of length l loaded
// with cload at the far end.
func (w Wire) Flight(l, cload float64) float64 {
	r := w.ResPerM * l
	c := w.CapPerM * l
	return r * (c/2 + cload)
}

// Options configures one analysis run.
type Options struct {
	// UseWire enables the wire load and flight model. The paper's
	// Figure 15 compares runs with and without it.
	UseWire bool
	// InputSlew is the assumed transition time at primary inputs;
	// 0 selects the library INV's fanout-of-2 output slew.
	InputSlew float64
	// OutputLoad is the capacitive load on primary outputs; 0 selects
	// two INV input caps.
	OutputLoad float64
	// MaxSlew is the max_transition design rule: propagated slews are
	// clamped to it, modeling the buffering/upsizing synthesis performs
	// to meet the rule. 0 selects 1.5x the characterized slew grid.
	MaxSlew float64
}

// Result is the outcome of one timing run.
type Result struct {
	Design   *synth.Design
	CritPath float64 // combinational critical path delay, s
	// MinPeriod adds the flip-flop clk-to-q and setup overheads.
	MinPeriod float64
	// Profile is the sequence of per-gate delay contributions along the
	// critical path, input to output; it sums to CritPath. The pipeline
	// package partitions it into stages.
	Profile []float64
	// RegOverhead is the clk-to-q + setup overhead included in MinPeriod.
	RegOverhead float64
	CombArea    float64
	NumCells    int
	BlockDim    float64
	Levels      int // gate count along the critical path
}

// scratch is the per-gate working state of one Analyze call. Sweep
// points analyze the same few netlists thousands of times, so the
// slices are pooled per worker instead of reallocated per call.
type scratch struct {
	pinLoad, wireCap, wireFlt []float64
	arrival, slew, gateDelay  []float64
	pred                      []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pinNames are the input pin names in arc order, shared across gates.
var pinNames = [...]string{"A", "B", "C"}

// resize readies every slice for n gates, zeroed.
func (s *scratch) resize(n int) {
	grow := func(f []float64) []float64 {
		if cap(f) < n {
			return make([]float64, n)
		}
		f = f[:n]
		for i := range f {
			f[i] = 0
		}
		return f
	}
	s.pinLoad = grow(s.pinLoad)
	s.wireCap = grow(s.wireCap)
	s.wireFlt = grow(s.wireFlt)
	s.arrival = grow(s.arrival)
	s.slew = grow(s.slew)
	s.gateDelay = grow(s.gateDelay)
	if cap(s.pred) < n {
		s.pred = make([]int32, n)
	}
	s.pred = s.pred[:n]
}

// Analyze runs static timing on the design.
func Analyze(d *synth.Design, w Wire, opt Options) (*Result, error) {
	nl := d.Netlist
	lib := d.Lib
	inv := lib.Cell("INV")
	if inv == nil {
		return nil, fmt.Errorf("sta: library %s lacks INV", lib.Name)
	}
	dff := lib.Cell("DFF")
	if dff == nil {
		return nil, fmt.Errorf("sta: library %s lacks DFF", lib.Name)
	}
	blockDim := d.BlockDim()
	inSlew := opt.InputSlew
	if inSlew <= 0 {
		if arc := inv.Arcs["A"]; arc != nil {
			inSlew = arc.WorstSlew(0, 2*inv.InputCap)
		}
	}
	outLoad := opt.OutputLoad
	if outLoad <= 0 {
		outLoad = 2 * inv.InputCap
	}
	maxSlew := opt.MaxSlew
	if maxSlew <= 0 {
		if arc := inv.Arcs["A"]; arc != nil && len(arc.SlewRise.Slews) > 0 {
			maxSlew = 1.5 * arc.SlewRise.Slews[len(arc.SlewRise.Slews)-1]
		} else {
			maxSlew = math.Inf(1)
		}
	}

	fanouts := nl.Fanouts()
	// Per-gate output net: pin load + wire load.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.resize(len(nl.Gates))
	pinLoad := sc.pinLoad
	wireCap := sc.wireCap
	wireFlt := sc.wireFlt
	for i := range nl.Gates {
		var load float64
		for _, fo := range fanouts[i] {
			if c := d.Cell[fo]; c != nil {
				load += c.InputCap
			}
		}
		if len(fanouts[i]) == 0 {
			load = outLoad
		}
		// Load isolation: a buffered net presents at most MaxFanout
		// sinks (buffer inputs) to the driver.
		fo := len(fanouts[i])
		if d.BufLevels[i] > 0 {
			groups := (fo + synth.MaxFanout - 1) / synth.MaxFanout
			load = float64(groups) * inv.InputCap
			fo = groups
		}
		pinLoad[i] = load
		kind := nl.Gates[i].Kind
		if kind == logic.Const0 || kind == logic.Const1 {
			continue // tie cells: no net
		}
		if opt.UseWire {
			l := w.NetLength(fo, blockDim)
			wireCap[i] = w.CapPerM * l
			wireFlt[i] = w.Flight(l, load)
		}
	}

	arrival := sc.arrival
	slew := sc.slew
	pred := sc.pred
	gateDelay := sc.gateDelay
	for i := range pred {
		pred[i] = -1
	}
	// Per-level buffer delay is constant across the run; evaluate the
	// INV arc once on first use instead of per buffered gate.
	bufD0 := math.NaN()
	bufDelayAt := func(levels int) float64 {
		if levels == 0 {
			return 0
		}
		if math.IsNaN(bufD0) {
			arc := inv.Arcs["A"]
			bufD0 = arc.WorstDelay(inSlew, float64(synth.MaxFanout)*inv.InputCap)
		}
		return float64(levels) * bufD0
	}
	for i, g := range nl.Gates {
		switch g.Kind {
		case logic.Input, logic.Const0, logic.Const1:
			arrival[i] = 0
			slew[i] = inSlew
			if g.Kind == logic.Input && d.BufLevels[i] > 0 {
				// The register driving this input feeds a buffer tree.
				wireFlt[i] += bufDelayAt(d.BufLevels[i])
			}
			continue
		}
		cell := d.Cell[i]
		load := pinLoad[i] + wireCap[i]
		var inArr, inSlw float64
		var from int32 = -1
		for k := 0; k < g.Kind.Arity(); k++ {
			src := g.In[k]
			a := arrival[src] + wireFlt[src]
			if a >= inArr {
				inArr = a
				inSlw = slew[src]
				from = int32(src)
			}
		}
		// Worst arc across pins (pessimistic single-value STA), each arc
		// evaluated exactly once.
		var arc *liberty.Arc
		var worst float64
		for _, p := range pinNames[:g.Kind.Arity()] {
			if a2 := cell.Arcs[p]; a2 != nil {
				if d2 := a2.WorstDelay(inSlw, load); arc == nil || d2 > worst {
					arc, worst = a2, d2
				}
			}
		}
		dly := worst + bufDelayAt(d.BufLevels[i])
		arrival[i] = inArr + dly
		gateDelay[i] = dly
		slew[i] = math.Min(arc.WorstSlew(inSlw, load), maxSlew)
		pred[i] = from
	}
	// Critical endpoint among primary outputs.
	var endpoint int32 = -1
	for _, o := range nl.Outputs {
		if endpoint < 0 || arrival[o] > arrival[endpoint] {
			endpoint = int32(o)
		}
	}
	if endpoint < 0 {
		return nil, fmt.Errorf("sta: netlist %s has no outputs", nl.Name)
	}
	// Walk the critical path back, collecting delay increments.
	var profile []float64
	for g := endpoint; g >= 0; g = pred[g] {
		if gd := gateDelay[g]; gd > 0 {
			incr := gd
			if p := pred[g]; p >= 0 {
				incr += wireFlt[p]
			}
			profile = append(profile, incr)
		}
	}
	// Reverse to input->output order.
	for l, r := 0, len(profile)-1; l < r; l, r = l+1, r-1 {
		profile[l], profile[r] = profile[r], profile[l]
	}
	crit := arrival[endpoint]
	reg := dff.ClkToQ + dff.Setup
	return &Result{
		Design:      d,
		CritPath:    crit,
		MinPeriod:   crit + reg,
		Profile:     profile,
		RegOverhead: reg,
		CombArea:    d.CombArea,
		NumCells:    d.NumCells,
		BlockDim:    blockDim,
		Levels:      len(profile),
	}, nil
}

// AnalyzeNetlist maps and analyzes in one step.
func AnalyzeNetlist(nl *logic.Netlist, lib *liberty.Library, w Wire, opt Options) (*Result, error) {
	return AnalyzeNetlistCtx(context.Background(), nl, lib, w, opt)
}

// AnalyzeNetlistCtx is AnalyzeNetlist with span parenting: the run is
// recorded as one "sta" span (and one metrics observation) under the
// span carried by ctx.
func AnalyzeNetlistCtx(ctx context.Context, nl *logic.Netlist, lib *liberty.Library, w Wire, opt Options) (*Result, error) {
	_, sp := obs.Start(ctx, "sta",
		obs.KV("netlist", nl.Name), obs.KV("lib", lib.Name), obs.Bool("wire", opt.UseWire),
		obs.Stage(obs.StageSTA))
	defer sp.End()
	d, err := synth.Map(nl, lib)
	if err != nil {
		return nil, err
	}
	res, err := Analyze(d, w, opt)
	if err == nil {
		sp.Set("cells", fmt.Sprint(res.NumCells))
		sp.Set("levels", fmt.Sprint(res.Levels))
	}
	return res, err
}

// Sanity check that profile sums match the critical path within
// tolerance (exported for tests).
func (r *Result) ProfileSum() float64 {
	var s float64
	for _, v := range r.Profile {
		s += v
	}
	return s
}

// MaxGateDelay returns the largest single increment on the critical
// path (the pipelining quantization floor).
func (r *Result) MaxGateDelay() float64 {
	m := 0.0
	for _, v := range r.Profile {
		m = math.Max(m, v)
	}
	return m
}
