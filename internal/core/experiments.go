package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cells"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Experiment reproduces one paper artifact (table or figure).
type Experiment struct {
	ID    string // e.g. "fig3"
	Title string
	Paper string // what the paper reports (target shape)
	Run   func(ctx context.Context) ([]*Table, error)
}

// ExperimentResult pairs an experiment with its rendered tables.
type ExperimentResult struct {
	Experiment *Experiment
	Tables     []*Table
	Wall       time.Duration // wall-clock time of this experiment's Run
}

// RunExperiments executes the given experiments concurrently on the
// worker pool (the registry's figures are independent; their shared
// heavy intermediates are deduplicated by the memo caches) and returns
// results in input order. The first failing experiment cancels the
// rest; experiments not yet started are skipped. Each experiment runs
// under an "experiment" span whose duration feeds the "experiment"
// metrics stage; nested sweeps and analyses parent to it.
//
// Under a context checkpoint (runner.WithCheckpoint), each completed
// experiment's tables are journaled whole under "experiment/{id}", and
// the sweeps inside journal their grid points individually — so a
// resumed run replays finished experiments instantly and finished
// points of the interrupted one.
func RunExperiments(ctx context.Context, exps []*Experiment) ([]ExperimentResult, error) {
	return runner.Map(ctx, len(exps), func(ctx context.Context, i int) (ExperimentResult, error) {
		e := exps[i]
		ctx, sp := obs.Start(ctx, "experiment",
			obs.KV("experiment", e.ID), obs.Stage(obs.StageExperiment))
		defer sp.End()
		start := time.Now()
		tables, err := runner.Checkpointed(ctx, checkpoint.PointID("experiment", e.ID),
			func(ctx context.Context) ([]*Table, error) { return e.Run(ctx) })
		if err != nil {
			return ExperimentResult{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return ExperimentResult{Experiment: e, Tables: tables, Wall: time.Since(start)}, nil
	})
}

// Experiments returns the full registry in paper order.
func Experiments() []*Experiment {
	return []*Experiment{
		{
			ID:    "fig3",
			Title: "Pentacene OTFT transfer characteristics",
			Paper: "mu_lin=0.16 cm2/Vs, SS=350 mV/dec, on/off=1e6, VT=-1.3 V (VDS=1V) / +1.3 V (VDS=10V)",
			Run:   runFig3,
		},
		{
			ID:    "fig4",
			Title: "Level 1 vs level 61 device model fit",
			Paper: "level 61 fits the transfer curve well at VDS=1V; level 1 misses sub-VT conduction and leakage",
			Run:   runFig4,
		},
		{
			ID:    "fig6",
			Title: "Inverter style comparison at VDD=15V",
			Paper: "diode-load gain 1.2 NM 0.3/0.4; biased-load gain 1.6 NM 0.9/1.2; pseudo-E gain 3.0 NM 3.0/3.5, ~10x NM and 2.5x gain over diode-load",
			Run:   runFig6,
		},
		{
			ID:    "fig7",
			Title: "Pseudo-E inverter across VDD",
			Paper: "VM 2.4/4.6/7.7 V at VDD 5/10/15; gain ~3; NM 20-25% of VDD; static power collapses at low VDD",
			Run:   runFig7,
		},
		{
			ID:    "fig8",
			Title: "Pseudo-E switching threshold vs VSS",
			Paper: "VM = 0.22*VSS + 5.76 (linear), VSS ~ -15 V puts VM at VDD/2",
			Run:   runFig8,
		},
		{
			ID:    "fig9",
			Title: "Standard cell library characterization (NLDM)",
			Paper: "6-cell pseudo-E organic library and trimmed silicon library with LUT timing",
			Run:   runFig9,
		},
		{
			ID:    "fig12",
			Title: "ALU pipeline depth sweep",
			Paper: "silicon frequency saturates ~8 stages (~4x); organic grows near-linearly past 22 stages; organic area grows faster",
			Run:   runFig12,
		},
		{
			ID:    "fig11",
			Title: "Core pipeline depth sweep (9-15 stages)",
			Paper: "silicon optimum 10-11 stages; organic optimum 14-15; areas flat; per-benchmark spread",
			Run:   runFig11,
		},
		{
			ID:    "fig13",
			Title: "Superscalar width performance matrix",
			Paper: "silicon peak M[4][2], organic peak 3 pipes wider (M[7][2]); organic much less width-sensitive",
			Run:   runFig13,
		},
		{
			ID:    "fig14",
			Title: "Superscalar width area matrix",
			Paper: "area matrices nearly identical across technologies after normalization",
			Run:   runFig14,
		},
		{
			ID:    "fig15",
			Title: "Wire-delay ablation (with/without wire)",
			Paper: "without wire cost, silicon scales like organic; with wire, silicon saturates early",
			Run:   runFig15,
		},
		{
			ID:    "variation",
			Title: "EXTENSION: VT-spread variation and VSS trimming",
			Paper: "Sections 4.1/4.3.3: VT spread within 0.5 V across a sample; 'cross-sample variation of VM from process variation can be tuned by applying a different VSS'",
			Run:   runVariation,
		},
		{
			ID:    "dynamic",
			Title: "EXTENSION: dynamic (precharge/evaluate) pseudo-PMOS logic",
			Paper: "Section 7 future work: 'unipolar transistor design favors dynamic logic because only roughly half the transistors are needed and switching time can be faster with the tradeoff being possibly worse power'",
			Run:   runDynamic,
		},
		{
			ID:    "energy",
			Title: "EXTENSION: energy per instruction vs pipeline depth",
			Paper: "Section 7 future work ('energy optimization'): not evaluated in the paper; derived here from characterized cell leakage and switching energy",
			Run:   runEnergy,
		},
		{
			ID:    "absfreq",
			Title: "Absolute baseline frequencies",
			Paper: "organic baseline ~200 Hz (optimized ~2x); silicon ~800 MHz baseline, 1.36 GHz optimized",
			Run:   runAbsFreq,
		},
	}
}

// ExperimentByID returns the named experiment or nil.
func ExperimentByID(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

func runFig3(_ context.Context) ([]*Table, error) {
	geom := device.PentaceneGeometry()
	var tables []*Table
	for _, curve := range device.PentaceneMeasurement() {
		p := device.ExtractDCParams(curve, geom)
		t := &Table{
			Title: fmt.Sprintf("fig3: extracted DC parameters at |VDS| = %g V", curve.VDS),
			Cols:  []string{"value"},
			Rows: []string{
				"mu_lin (cm^2/Vs)", "SS (mV/dec)", "on/off ratio",
				"VT (V, extrapolated)", "Ion (A)", "Ioff (A)",
			},
			V: [][]float64{
				{p.MuLin * 1e4}, {p.SS * 1e3}, {p.OnOffRatio},
				{p.VT}, {p.OnCurrent}, {p.OffCurrent},
			},
		}
		tables = append(tables, t)
	}
	tables[0].Note = "paper: mu 0.16, SS 350, on/off 1e6, VT -1.3 V at VDS=1V"
	tables[1].Note = "paper: VT reading moves to +1.3 V at VDS=10V (drain-induced shift)"
	return tables, nil
}

func runFig4(_ context.Context) ([]*Table, error) {
	curves := []device.TransferCurve{
		device.SynthesizeTransfer(device.PentaceneGolden(), 1, 81, 0.03),
	}
	geom := device.PentaceneGeometry()
	r1 := device.FitLevel1(curves, geom)
	r61 := device.FitLevel61(curves, geom)
	return []*Table{{
		Title: "fig4: model fit quality (RMS log10-current error, decades)",
		Cols:  []string{"rms error", "evals"},
		Rows:  []string{"level 1 (Shichman-Hodges)", "level 61 (RPI TFT)"},
		V: [][]float64{
			{r1.RMSLogErr, float64(r1.Evals)},
			{r61.RMSLogErr, float64(r61.Evals)},
		},
		Note: "paper: level 61 fits well; level 1 cannot represent sub-VT conduction or leakage",
	}}, nil
}

func runFig6(_ context.Context) ([]*Table, error) {
	type styleCfg struct {
		name  string
		style cells.InverterStyle
		vss   float64
	}
	cfgs := []styleCfg{
		{"diode-load", cells.DiodeLoad, 0},
		{"biased-load", cells.BiasedLoad, -5},
		{"pseudo-E", cells.PseudoE, -15},
	}
	t := &Table{
		Title: "fig6: inverter DC comparison at VDD=15V",
		Cols:  []string{"VM (V)", "gain", "NMH (V)", "NML (V)", "VOH (V)", "VOL (V)", "P(in=0) uW", "P(in=VDD) uW"},
		Fmt:   "%.3g",
		Note:  "paper 6(d): VM 8.1/6.8/7.7, gain 1.2/1.6/3.0, NM 0.3-0.4 / 0.9-1.2 / 3.0-3.5, P(0) 109/126/215 uW",
	}
	for _, c := range cfgs {
		dc, _, err := cells.AnalyzeOrganicInverter(c.style, 15, c.vss, 151)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, c.name)
		t.V = append(t.V, []float64{dc.VM, dc.Gain, dc.NMH, dc.NML, dc.VOH, dc.VOL, dc.PowLow * 1e6, dc.PowHigh * 1e6})
	}
	return []*Table{t}, nil
}

func runFig7(_ context.Context) ([]*Table, error) {
	t := &Table{
		Title: "fig7: pseudo-E inverter across VDD",
		Cols:  []string{"VSS (V)", "VM (V)", "gain", "NMH (V)", "NML (V)", "P(in=0) uW", "P(in=VDD) uW"},
		Fmt:   "%.3g",
		Note:  "paper 7(d): VM 2.4/4.6/7.7, gain 3.2/2.9/3.0, NM ~20-25% VDD, P(0) 13/98/215 uW",
	}
	for _, r := range [][2]float64{{5, -15}, {10, -20}, {15, -15}} {
		dc, _, err := cells.AnalyzeOrganicInverter(cells.PseudoE, r[0], r[1], 151)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, fmt.Sprintf("VDD=%g", r[0]))
		t.V = append(t.V, []float64{r[1], dc.VM, dc.Gain, dc.NMH, dc.NML, dc.PowLow * 1e6, dc.PowHigh * 1e6})
	}
	return []*Table{t}, nil
}

func runFig8(_ context.Context) ([]*Table, error) {
	vss := []float64{-20, -17.5, -15, -12.5, -10}
	vms, slope, intercept, err := cells.VMVersusVSS(5, vss, 121)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "fig8: pseudo-E VM vs VSS at VDD=5V",
		Cols:  []string{"VM (V)"},
		Fmt:   "%.3g",
		Note: fmt.Sprintf("linear fit: VM = %.3f*VSS + %.2f (paper: 0.22*VSS + 5.76 over its bias range)",
			slope, intercept),
	}
	for i, v := range vss {
		t.Rows = append(t.Rows, fmt.Sprintf("VSS=%g", v))
		t.V = append(t.V, []float64{vms[i]})
	}
	return []*Table{t}, nil
}

func runFig9(_ context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		lib := tech.Lib
		t := &Table{
			Title: fmt.Sprintf("fig9/sec4.4: %s library (fo4=%.3g s)", tech.Name, lib.FO4()),
			Cols:  []string{"area (um^2)", "cin (fF)", "delay fo2 (s)", "transistors"},
			Fmt:   "%.4g",
		}
		for _, name := range lib.Names() {
			c := lib.Cells[name]
			var d float64
			if !c.Sequential {
				if a := c.WorstArc(0, 2*c.InputCap); a != nil {
					d = a.WorstDelay(0, 2*c.InputCap)
				}
			} else {
				d = c.ClkToQ
			}
			t.Rows = append(t.Rows, name)
			t.V = append(t.V, []float64{c.Area * 1e12, c.InputCap * 1e15, d, float64(c.Transistors)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig12(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		pts, err := ALUDepthSweep(ctx, tech, 30, true)
		if err != nil {
			return nil, err
		}
		freq, area := NormalizePoints(pts)
		t := &Table{
			Title: fmt.Sprintf("fig12: %s complex-ALU depth sweep (normalized to 1 stage)", tech.Name),
			Cols:  []string{"freq (x)", "area (x)", "abs freq (Hz)"},
			Fmt:   "%.3g",
		}
		for i, p := range pts {
			t.Rows = append(t.Rows, fmt.Sprintf("n=%d", p.Stages))
			t.V = append(t.V, []float64{freq[i], area[i], p.Freq})
			if p.Err != "" {
				t.Errors = append(t.Errors, fmt.Sprintf("%s n=%d: %s", tech.Name, p.Stages, p.Err))
			}
		}
		opt := 0
		for i := range freq {
			if freq[i] > freq[opt] {
				opt = i
			}
		}
		t.Note = fmt.Sprintf("optimal depth %d at %.2fx (paper: silicon ~8 at ~4x; organic past 22 near-linearly)",
			pts[opt].Stages, freq[opt])
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig11(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		pts, err := CoreDepthSweep(ctx, tech, 9, 15, true)
		if err != nil {
			return nil, err
		}
		norm := NormalizeDepth(pts)
		cols := append([]string{"freq (x)", "area (x)"}, Benchmarks()...)
		t := &Table{
			Title: fmt.Sprintf("fig11: %s core depth sweep (normalized to 9 stages)", tech.Name),
			Cols:  cols,
			Fmt:   "%.3g",
		}
		for _, p := range norm {
			t.Rows = append(t.Rows, fmt.Sprintf("d=%d", p.Depth))
			row := []float64{p.Freq, p.Area}
			for _, b := range Benchmarks() {
				row = append(row, p.Perf[b])
				if e := p.Errors[b]; e != "" {
					t.Errors = append(t.Errors, fmt.Sprintf("%s d=%d %s: %s", tech.Name, p.Depth, b, e))
				}
			}
			t.V = append(t.V, row)
		}
		best := map[int]int{}
		for _, b := range Benchmarks() {
			best[BestDepth(norm, b)]++
		}
		t.Note = fmt.Sprintf("best-depth histogram %v (paper: silicon mostly 10-11, organic 14-15)", best)
		tables = append(tables, t)
	}
	return tables, nil
}

func widthTable(ctx context.Context, tech *Tech, area bool) (*Table, error) {
	pts, err := WidthSweep(ctx, tech)
	if err != nil {
		return nil, err
	}
	m := Matrix(pts, area)
	kind := "performance"
	if area {
		kind = "area"
	}
	t := &Table{
		Title: fmt.Sprintf("fig1%d: %s width %s matrix (normalized to max)", map[bool]int{false: 3, true: 4}[area], tech.Name, kind),
		Fmt:   "%.2f",
	}
	for fe := MinFront; fe <= MaxFront; fe++ {
		t.Cols = append(t.Cols, fmt.Sprintf("fe=%d", fe))
	}
	for be := MinBack; be <= MaxBack; be++ {
		t.Rows = append(t.Rows, fmt.Sprintf("be=%d", be))
	}
	t.V = m
	if !area {
		fe, be := Optimal(pts)
		t.Note = fmt.Sprintf("optimal fe=%d be=%d (paper: silicon M[4][2], organic M[7][2])", fe, be)
	}
	for _, p := range pts {
		if p.Err != "" {
			t.Errors = append(t.Errors, fmt.Sprintf("%s fe=%d be=%d: %s", tech.Name, p.Front, p.Back, p.Err))
		}
	}
	return t, nil
}

func runFig13(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		t, err := widthTable(ctx, tech, false)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig14(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		t, err := widthTable(ctx, tech, true)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig15(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	// (a) ALU frequency with/without wire.
	ta := &Table{
		Title: "fig15a: ALU normalized frequency vs stages, with/without wire",
		Cols:  []string{"sil wire", "sil no-wire", "org wire", "org no-wire"},
		Fmt:   "%.3g",
	}
	var series [][]float64
	for _, tech := range BothTechs() {
		for _, wire := range []bool{true, false} {
			pts, err := ALUDepthSweep(ctx, tech, 30, wire)
			if err != nil {
				return nil, err
			}
			freq, _ := NormalizePoints(pts)
			series = append(series, freq)
			for _, p := range pts {
				if p.Err != "" {
					ta.Errors = append(ta.Errors, fmt.Sprintf("%s %s n=%d: %s", tech.Name, wireTag(wire), p.Stages, p.Err))
				}
			}
		}
	}
	for n := 1; n <= 30; n++ {
		ta.Rows = append(ta.Rows, fmt.Sprintf("n=%d", n))
		ta.V = append(ta.V, []float64{series[0][n-1], series[1][n-1], series[2][n-1], series[3][n-1]})
	}
	ta.Note = "paper: removing wire cost makes silicon scale like organic; organic's curves coincide"
	tables = append(tables, ta)
	// (b) Core frequency with/without wire, 9-15 stages.
	tb := &Table{
		Title: "fig15b: core normalized frequency vs stages, with/without wire",
		Cols:  []string{"sil wire", "sil no-wire", "org wire", "org no-wire"},
		Fmt:   "%.3g",
	}
	var coreSeries [][]float64
	for _, tech := range BothTechs() {
		for _, wire := range []bool{true, false} {
			pts, err := CoreDepthSweep(ctx, tech, 9, 15, wire)
			if err != nil {
				return nil, err
			}
			var f []float64
			for _, p := range pts {
				f = append(f, ratio(p.Freq, pts[0].Freq))
				for _, b := range Benchmarks() {
					if e := p.Errors[b]; e != "" {
						tb.Errors = append(tb.Errors, fmt.Sprintf("%s %s d=%d %s: %s", tech.Name, wireTag(wire), p.Depth, b, e))
					}
				}
			}
			coreSeries = append(coreSeries, f)
		}
	}
	for d := 9; d <= 15; d++ {
		tb.Rows = append(tb.Rows, fmt.Sprintf("d=%d", d))
		tb.V = append(tb.V, []float64{coreSeries[0][d-9], coreSeries[1][d-9], coreSeries[2][d-9], coreSeries[3][d-9]})
	}
	tb.Note = "paper: organic 14-stage ~2x baseline; silicon ~1.5x and earlier flattening"
	tables = append(tables, tb)
	return tables, nil
}

func runVariation(_ context.Context) ([]*Table, error) {
	shifts := []float64{-0.25, -0.125, 0, 0.125, 0.25}
	pts, err := cells.VariationTrim(5, -15, shifts, 121)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "extension: pseudo-E VM under VT spread, before/after VSS trim (VDD=5V)",
		Cols:  []string{"VM (V)", "trim VSS (V)", "VM trimmed (V)"},
		Fmt:   "%.4g",
	}
	var worstBefore, worstAfter float64
	var nominal float64
	for _, p := range pts {
		if p.VTShift == 0 {
			nominal = p.VM
		}
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, fmt.Sprintf("dVT=%+.3f", p.VTShift))
		t.V = append(t.V, []float64{p.VM, p.VSSTrim, p.VMTrimmed})
		if d := math.Abs(p.VM - nominal); d > worstBefore {
			worstBefore = d
		}
		if d := math.Abs(p.VMTrimmed - nominal); d > worstAfter {
			worstAfter = d
		}
	}
	t.Note = fmt.Sprintf("worst VM deviation %.0f mV before trim, %.0f mV after (paper: VSS is the variation trim knob)",
		1e3*worstBefore, 1e3*worstAfter)
	return []*Table{t}, nil
}

func runDynamic(_ context.Context) ([]*Table, error) {
	res, err := cells.AnalyzeDynamicOr(5, -15)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "extension: dynamic OR vs static pseudo-E OR (VDD=5V)",
		Cols:  []string{"dynamic", "static pseudo-E"},
		Rows:  []string{"delay (s)", "transistors", "energy/eval (J)", "static power (W)"},
		Fmt:   "%.3g",
		V: [][]float64{
			{res.EvalDelay, res.StaticDelay},
			{float64(res.Transistors), float64(res.StaticTrans)},
			{res.EnergyPerEval, 0},
			{0, res.StaticPower},
		},
		Note: fmt.Sprintf("dynamic is %.1fx faster with %.0f%% of the transistors; it pays clock energy every cycle where the static gate pays continuous ratioed power (paper's stated tradeoff)",
			res.StaticDelay/res.EvalDelay, 100*float64(res.Transistors)/float64(res.StaticTrans)),
	}
	return []*Table{t}, nil
}

func runEnergy(ctx context.Context) ([]*Table, error) {
	var tables []*Table
	for _, tech := range BothTechs() {
		pts, err := EnergySweep(ctx, tech, 9, 15)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title: fmt.Sprintf("extension: %s energy per instruction vs depth", tech.Name),
			Cols:  []string{"freq (Hz)", "mean IPC", "E/instr (J)", "static share"},
			Fmt:   "%.3g",
		}
		for _, p := range pts {
			t.Rows = append(t.Rows, fmt.Sprintf("d=%d", p.Depth))
			t.V = append(t.V, []float64{p.Freq, p.MeanIPC, p.EPI, p.StaticShare})
		}
		best := pts[0]
		for _, p := range pts {
			if p.EPI < best.EPI {
				best = p
			}
		}
		t.Note = fmt.Sprintf("minimum energy at depth %d; static share %.0f%%", best.Depth, 100*best.StaticShare)
		tables = append(tables, t)
	}
	return tables, nil
}

func runAbsFreq(ctx context.Context) ([]*Table, error) {
	t := &Table{
		Title: "sec5.3: absolute core frequencies",
		Cols:  []string{"baseline 9-stage (Hz)", "best swept depth (Hz)", "ratio"},
		Fmt:   "%.4g",
		Note: "paper: organic ~200 Hz baseline; silicon 800 MHz baseline / 1.36 GHz optimized. " +
			"Our organic library's 80 um shadow-mask channel makes absolute organic frequency " +
			"lower (delay scales with L^2); normalized trends are unaffected. The paper's '40 Hz " +
			"optimized' appears to be a typo (optimized must exceed baseline).",
	}
	for _, tech := range BothTechs() {
		pts, err := CoreDepthSweep(ctx, tech, 9, 15, true)
		if err != nil {
			return nil, err
		}
		best := pts[0].Freq
		for _, p := range pts {
			best = math.Max(best, p.Freq)
		}
		t.Rows = append(t.Rows, tech.Name)
		t.V = append(t.V, []float64{pts[0].Freq, best, best / pts[0].Freq})
	}
	return []*Table{t}, nil
}
