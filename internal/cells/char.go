package cells

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

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
// and reloaded on later runs, skipping the ~10 s transient-simulation
// pass (stale files regenerate on format-version or read errors).
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

// saveLibraryFile persists a characterized library.
func saveLibraryFile(path string, lib *liberty.Library) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := liberty.Write(f, lib); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Characterize runs the full NLDM flow for every prototype cell and
// derives the DFF timing, mirroring the SiliconSmart step of the paper.
func Characterize(t *Technology, cfg CharConfig) (*liberty.Library, error) {
	return CharacterizeCtx(context.Background(), t, cfg)
}

// CharacterizeCtx is Characterize with cancellation and span parenting:
// each cell's characterization runs in its own "characterize" span
// under the span carried by ctx.
func CharacterizeCtx(ctx context.Context, t *Technology, cfg CharConfig) (*liberty.Library, error) {
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
	// Cells are independent; characterize them on the worker pool.
	cellsOut, err := runner.Map(ctx, len(t.Protos), func(ctx context.Context, i int) (*liberty.Cell, error) {
		_, sp := obs.Start(ctx, "characterize",
			obs.KV("tech", t.Name), obs.KV("cell", t.Protos[i].Name),
			obs.Stage(obs.StageCharacterize))
		defer sp.End()
		cell, err := characterizeCell(t, t.Protos[i], slews, loads, cfg.Steps)
		if err != nil {
			return nil, fmt.Errorf("cells: %s/%s: %w", t.Name, t.Protos[i].Name, err)
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cell := range cellsOut {
		lib.Cells[t.Protos[i].Name] = cell
	}
	lib.Cells["DFF"] = deriveDFF(t, lib)
	return lib, nil
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

// charPoint holds one measured grid point.
type charPoint struct {
	delay, slew float64
}

// measureArcPoint runs one transient: input pin transitions with the
// given ramp time while the others hold non-controlling values, and the
// output (loaded with cl) is measured for 50-50 delay and 20-80 slew.
func measureArcPoint(t *Technology, p *Proto, pin string, others map[string]bool, outRising bool, tramp, cl float64, steps int) (charPoint, error) {
	// Determine the input direction that produces the requested output
	// transition.
	asg := make(map[string]bool, len(p.Inputs))
	for k, v := range others {
		asg[k] = v
	}
	asg[pin] = true
	outWhenHigh := p.Eval(asg)
	inRising := outWhenHigh == outRising

	window := 6*tramp + 60*t.TimeScale
	for attempt := 0; attempt < 4; attempt++ {
		c := t.newCircuit()
		pins := map[string]spice.Node{}
		vdd := c.Node("vdd")
		c.V("VDD", vdd, spice.Ground, spice.DC(t.VDD))
		pins["vdd"] = vdd
		vss := spice.Node(spice.Ground)
		if t.VSS != 0 {
			vss = c.Node("vss")
			c.V("VSS", vss, spice.Ground, spice.DC(t.VSS))
		}
		pins["vss"] = vss
		level := func(b bool) float64 {
			if b {
				return t.VDD
			}
			return 0
		}
		for _, in := range p.Inputs {
			n := c.Node("in_" + in)
			pins[in] = n
			if in == pin {
				v0, v1 := level(!inRising), level(inRising)
				hold := window * 0.15
				c.V("VIN", n, spice.Ground, spice.Ramp{V0: v0, V1: v1, T0: hold, T1: hold + tramp})
			} else {
				c.V("V_"+in, n, spice.Ground, spice.DC(level(others[in])))
			}
		}
		out := c.Node("out")
		pins[p.Output] = out
		p.Build(c, pins)
		if cl > 0 {
			c.C("CL", out, spice.Ground, cl)
		}
		dt := window / float64(steps)
		tr, err := c.Transient(window, dt, out)
		if err != nil {
			return charPoint{}, err
		}
		v := tr.V(out)
		hold := window * 0.15
		tIn50 := hold + tramp/2
		half := t.VDD / 2
		tOut := spice.CrossTime(tr.Times, v, half, outRising, hold)
		oslew := spice.Slew2080(tr.Times, v, 0, t.VDD, outRising, hold)
		if !math.IsNaN(tOut) && !math.IsNaN(oslew) && oslew > 0 {
			return charPoint{delay: tOut - tIn50, slew: oslew}, nil
		}
		// Output did not complete its transition: widen the window.
		window *= 4
	}
	return charPoint{}, fmt.Errorf("output never settled (pin %s, rising=%v, tramp=%g, cl=%g)", pin, outRising, tramp, cl)
}

func characterizeCell(t *Technology, p *Proto, slews, loads []float64, steps int) (*liberty.Cell, error) {
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
	for _, pin := range p.Inputs {
		others, err := nonControlling(p, pin)
		if err != nil {
			return nil, err
		}
		arc := &liberty.Arc{
			From:      pin,
			DelayRise: newLUT(), DelayFall: newLUT(),
			SlewRise: newLUT(), SlewFall: newLUT(),
		}
		for i, s := range slews {
			// Input ramp duration from the 20-80 slew definition.
			tramp := s / 0.6
			for j, cl := range loads {
				up, err := measureArcPoint(t, p, pin, others, true, tramp, cl, steps)
				if err != nil {
					return nil, err
				}
				down, err := measureArcPoint(t, p, pin, others, false, tramp, cl, steps)
				if err != nil {
					return nil, err
				}
				arc.DelayRise.Value[i][j] = up.delay
				arc.SlewRise.Value[i][j] = up.slew
				arc.DelayFall.Value[i][j] = down.delay
				arc.SlewFall.Value[i][j] = down.slew
			}
		}
		cell.Arcs[pin] = arc
	}
	// Static power at all-low and all-high inputs, then the dynamic
	// switching energy against that baseline.
	lo, hi, err := staticPower(t, p)
	if err != nil {
		return nil, err
	}
	cell.LeakLow, cell.LeakHigh = lo, hi
	if cell.SwitchEnergy, err = measureSwitchEnergy(t, p, lo, hi); err != nil {
		return nil, err
	}
	return cell, nil
}

// staticPower solves the DC supply power with all inputs low and all
// inputs high.
func staticPower(t *Technology, p *Proto) (lo, hi float64, err error) {
	run := func(level float64) (float64, error) {
		c := t.newCircuit()
		pins := map[string]spice.Node{}
		vdd := c.Node("vdd")
		c.V("VDD", vdd, spice.Ground, spice.DC(t.VDD))
		pins["vdd"] = vdd
		vss := spice.Node(spice.Ground)
		if t.VSS != 0 {
			vss = c.Node("vss")
			c.V("VSS", vss, spice.Ground, spice.DC(t.VSS))
		}
		pins["vss"] = vss
		for _, in := range p.Inputs {
			n := c.Node("in_" + in)
			pins[in] = n
			c.V("V_"+in, n, spice.Ground, spice.DC(level))
		}
		pins[p.Output] = c.Node("out")
		p.Build(c, pins)
		op, err := c.DCOperatingPoint()
		if err != nil {
			return 0, err
		}
		return op.SupplyPower(0), nil
	}
	if lo, err = run(0); err != nil {
		return 0, 0, err
	}
	if hi, err = run(t.VDD); err != nil {
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
