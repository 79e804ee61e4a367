package cells

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/spice"
)

// CharConfig controls NLDM characterization.
type CharConfig struct {
	SlewMults []float64 // input-slew grid, in multiples of tech.TimeScale
	LoadMults []float64 // load grid, in multiples of the INV input cap
	Steps     int       // transient time steps per simulation
}

// DefaultCharConfig is the grid used for the shipped libraries.
func DefaultCharConfig() CharConfig {
	return CharConfig{
		SlewMults: []float64{0.2, 0.5, 1, 2, 5},
		LoadMults: []float64{0.5, 1, 2, 4, 8},
		Steps:     1200,
	}
}

// libMemo caches characterized libraries per technology name, so the
// two technologies characterize concurrently instead of serializing on
// a package-level mutex.
var libMemo runner.Memo[string, *liberty.Library]

// Library characterizes (once, cached) and returns the technology's
// 6-cell liberty library. When the process default configuration
// (internal/config, set by the -libcache flag) names a directory,
// characterized libraries are persisted there as <name>.lib text files
// and reloaded on later runs, skipping the transient-simulation pass
// (about 1.7 s of CPU for the organic library; stale files regenerate on
// format-version or read errors).
// Characterized libraries are a process-wide shared resource: sessions
// share them deliberately, since characterization is deterministic.
func Library(t *Technology) *liberty.Library {
	lib, err := libMemo.Do(t.Name, func() (*liberty.Library, error) {
		ctx, sp := obs.Start(context.Background(), "characterize-library", obs.KV("tech", t.Name))
		defer sp.End()
		cacheDir := config.Default().LibCache
		if cacheDir != "" {
			if lib, err := loadLibraryFile(filepath.Join(cacheDir, t.Name+".lib")); err == nil {
				sp.Set("cache", "hit")
				lib.Freeze()
				return lib, nil
			}
		}
		sp.Set("cache", "miss")
		lib, err := CharacterizeCtx(ctx, t, DefaultCharConfig())
		if err != nil {
			return nil, err
		}
		if cacheDir != "" {
			// Best effort: a failed save only means re-characterizing later.
			_ = saveLibraryFile(filepath.Join(cacheDir, t.Name+".lib"), lib)
		}
		lib.Freeze()
		return lib, nil
	})
	if err != nil {
		panic(fmt.Sprintf("cells: characterizing %s: %v", t.Name, err))
	}
	return lib
}

// loadLibraryFile reads a cached characterized library.
func loadLibraryFile(path string) (*liberty.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return liberty.Read(f)
}

// saveLibraryFile persists a characterized library atomically, so
// concurrent writers sharing one cache directory never see or leave a
// torn file.
func saveLibraryFile(path string, lib *liberty.Library) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := liberty.Write(&buf, lib); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, buf.Bytes())
}

// CharacterizeCtx runs the full NLDM flow for every prototype cell and
// derives the DFF timing, mirroring the SiliconSmart step of the paper.
// It pre-builds every cell with its LUTs, then runs every arc point
// (cell, pin, slew, load, output direction) and every cell's power
// measurement as its own task on the worker pool, each in its own
// "characterize" span under the span carried by ctx. A task writes only
// its own slots, so the library does not depend on the worker count.
func CharacterizeCtx(ctx context.Context, t *Technology, cfg CharConfig) (*liberty.Library, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("cells: %s: %w", t.Name, err)
	}
	lib := &liberty.Library{
		Name:  t.Name,
		VDD:   t.VDD,
		VSS:   t.VSS,
		Cells: make(map[string]*liberty.Cell),
	}
	var invCap float64
	for _, p := range t.Protos {
		if p.Name == "INV" {
			invCap = p.InputCap
		}
	}
	if invCap <= 0 {
		return nil, fmt.Errorf("cells: %s has no INV prototype", t.Name)
	}
	slews := make([]float64, len(cfg.SlewMults))
	for i, m := range cfg.SlewMults {
		slews[i] = m * t.TimeScale
	}
	loads := make([]float64, len(cfg.LoadMults))
	for i, m := range cfg.LoadMults {
		loads[i] = m * invCap
	}
	var tasks []func(ctx context.Context) error
	for _, p := range t.Protos {
		cell := newCell(p, slews, loads)
		lib.Cells[p.Name] = cell
		wrap := func(err error) error { return fmt.Errorf("cells: %s/%s: %w", t.Name, p.Name, err) }
		tasks = append(tasks, func(ctx context.Context) error {
			_, sp := obs.Start(ctx, "characterize",
				obs.KV("tech", t.Name), obs.KV("cell", p.Name),
				obs.Stage(obs.StageCharacterize))
			defer sp.End()
			// Static power at all-low and all-high inputs, then the
			// dynamic switching energy against that baseline.
			lo, hi, err := staticPower(t, p)
			if err != nil {
				return wrap(err)
			}
			cell.LeakLow, cell.LeakHigh = lo, hi
			if cell.SwitchEnergy, err = measureSwitchEnergy(t, p, lo, hi); err != nil {
				return wrap(err)
			}
			return nil
		})
		for _, pin := range p.Inputs {
			others, err := nonControlling(p, pin)
			if err != nil {
				return nil, wrap(err)
			}
			arc := cell.Arcs[pin]
			for i, s := range slews {
				// Input ramp duration from the 20-80 slew definition.
				tramp := s / 0.6
				for j, cl := range loads {
					for _, rising := range []bool{true, false} {
						delay, slew := arc.DelayFall, arc.SlewFall
						if rising {
							delay, slew = arc.DelayRise, arc.SlewRise
						}
						tasks = append(tasks, func(ctx context.Context) error {
							_, sp := obs.Start(ctx, "characterize",
								obs.KV("tech", t.Name), obs.KV("cell", p.Name), obs.KV("pin", pin),
								obs.Stage(obs.StageCharacterize))
							defer sp.End()
							d, s, err := measureArcPoint(t, p, pin, others, rising, tramp, cl, cfg.Steps)
							if err != nil {
								return wrap(err)
							}
							delay.Value[i][j], slew.Value[i][j] = d, s
							return nil
						})
					}
				}
			}
		}
	}
	if _, err := runner.Map(ctx, len(tasks), func(ctx context.Context, k int) (struct{}, error) {
		return struct{}{}, tasks[k](ctx)
	}); err != nil {
		return nil, err
	}
	lib.Cells["DFF"] = deriveDFF(t, lib)
	return lib, nil
}

// validate rejects a grid that cannot characterize, before any
// transient runs: an empty grid, a multiple that is not positive and
// finite, or fewer than two time steps.
func (cfg CharConfig) validate() error {
	for _, g := range []struct {
		name  string
		mults []float64
	}{{"SlewMults", cfg.SlewMults}, {"LoadMults", cfg.LoadMults}} {
		if len(g.mults) == 0 {
			return fmt.Errorf("CharConfig.%s is empty", g.name)
		}
		for _, m := range g.mults {
			if !(m > 0) || math.IsInf(m, 1) {
				return fmt.Errorf("CharConfig.%s has multiple %g, want positive and finite", g.name, m)
			}
		}
	}
	if cfg.Steps < 2 {
		return fmt.Errorf("CharConfig.Steps is %d, want at least 2", cfg.Steps)
	}
	return nil
}

// newCell returns the liberty cell of prototype p with one arc per
// input pin, its LUTs sized to the grid and zeroed for the tasks of
// CharacterizeCtx to fill.
func newCell(p *Proto, slews, loads []float64) *liberty.Cell {
	newLUT := func() *liberty.LUT {
		v := make([][]float64, len(slews))
		for i := range v {
			v[i] = make([]float64, len(loads))
		}
		return &liberty.LUT{
			Slews: append([]float64(nil), slews...),
			Loads: append([]float64(nil), loads...),
			Value: v,
		}
	}
	cell := &liberty.Cell{
		Name:        p.Name,
		Inputs:      append([]string(nil), p.Inputs...),
		Output:      p.Output,
		Function:    p.Function,
		Area:        p.Area,
		InputCap:    p.InputCap,
		Transistors: p.Transistors,
		Arcs:        make(map[string]*liberty.Arc, len(p.Inputs)),
	}
	for _, pin := range p.Inputs {
		cell.Arcs[pin] = &liberty.Arc{
			From:      pin,
			DelayRise: newLUT(), DelayFall: newLUT(),
			SlewRise: newLUT(), SlewFall: newLUT(),
		}
	}
	return cell
}

// nonControlling finds values for the other input pins such that the
// output follows the pin under test.
func nonControlling(p *Proto, pin string) (map[string]bool, error) {
	others := make([]string, 0, len(p.Inputs))
	for _, in := range p.Inputs {
		if in != pin {
			others = append(others, in)
		}
	}
	for mask := 0; mask < 1<<len(others); mask++ {
		asg := make(map[string]bool, len(p.Inputs))
		for i, o := range others {
			asg[o] = mask&(1<<i) != 0
		}
		asg[pin] = false
		lo := p.Eval(asg)
		asg[pin] = true
		hi := p.Eval(asg)
		if lo != hi {
			delete(asg, pin)
			return asg, nil
		}
	}
	return nil, fmt.Errorf("pin %s never controls the output", pin)
}

// measureArcPoint runs one transient: input pin transitions with the
// given ramp time while the others hold non-controlling values, and the
// output (loaded with cl) is measured for 50-50 delay and 20-80 slew.
// The transient streams the measurement and stops at its last crossing;
// an output that never completes its transition gets a wider window.
func measureArcPoint(t *Technology, p *Proto, pin string, others map[string]bool, outRising bool, tramp, cl float64, steps int) (delay, slew float64, err error) {
	window := 6*tramp + 60*t.TimeScale
	for attempt := 0; attempt < 4; attempt++ {
		c, out, hold := arcCircuit(t, p, pin, others, outRising, tramp, cl, window)
		tOut, oslew, err := c.MeasureEdge(window, window/float64(steps), out, outRising, 0, t.VDD, hold)
		if err != nil {
			return 0, 0, err
		}
		if !math.IsNaN(tOut) && !math.IsNaN(oslew) && oslew > 0 {
			return tOut - (hold + tramp/2), oslew, nil
		}
		// Output did not complete its transition: widen the window.
		window *= 4
	}
	return 0, 0, fmt.Errorf("output never settled (pin %s, rising=%v, tramp=%g, cl=%g)", pin, outRising, tramp, cl)
}

// arcCircuit builds the test bench of one arc point over the given
// window: the cell under supply, pin ramping after a hold of 15% of the
// window in the direction that moves the output as outRising asks, the
// other inputs at their non-controlling levels, and cl on the output.
func arcCircuit(t *Technology, p *Proto, pin string, others map[string]bool, outRising bool, tramp, cl, window float64) (c *spice.Circuit, out spice.Node, hold float64) {
	asg := make(map[string]bool, len(p.Inputs))
	for k, v := range others {
		asg[k] = v
	}
	asg[pin] = true
	inRising := p.Eval(asg) == outRising
	hold = window * 0.15
	ramp := spice.Ramp{V0: t.level(!inRising), V1: t.level(inRising), T0: hold, T1: hold + tramp}
	c, out = t.testBench(p, pin, ramp, others, cl)
	return c, out, hold
}

// staticPower solves the DC supply power with all inputs low and all
// inputs high.
func staticPower(t *Technology, p *Proto) (lo, hi float64, err error) {
	run := func(high bool) (float64, error) {
		held := make(map[string]bool, len(p.Inputs))
		for _, in := range p.Inputs {
			held[in] = high
		}
		c, _ := t.testBench(p, "", nil, held, 0)
		op, err := c.DCOperatingPoint()
		if err != nil {
			return 0, err
		}
		return op.SupplyPower(0), nil
	}
	if lo, err = run(false); err != nil {
		return 0, 0, err
	}
	if hi, err = run(true); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// deriveDFF composes the flip-flop's timing from the characterized NAND
// cells: the 6-gate master-slave structure has two gate delays from
// clock edge to Q and a two-gate settling requirement before the edge.
func deriveDFF(t *Technology, lib *liberty.Library) *liberty.Cell {
	nand2 := lib.MustCell("NAND2")
	nand3 := lib.MustCell("NAND3")
	load := nand2.InputCap
	d2 := nand2.WorstArc(t.TimeScale, load).WorstDelay(t.TimeScale, load)
	d3 := nand3.WorstArc(t.TimeScale, load).WorstDelay(t.TimeScale, load)
	return &liberty.Cell{
		Name:        "DFF",
		Inputs:      []string{"D", "CK"},
		Output:      "Q",
		Function:    "DFF(D,CK)",
		Area:        t.DFFArea,
		InputCap:    t.DFFInputCap,
		Transistors: t.DFFTransistors,
		Sequential:  true,
		ClkToQ:      d3 + d2,
		Setup:       2 * d3,
		Hold:        0,
		Arcs:        map[string]*liberty.Arc{},
	}
}
