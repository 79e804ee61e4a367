package sta

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/synth"
)

// linLUT is a table of d0 + k*load + ks*slew on a 5-load by 3-slew
// grid whose largest slew is 5ps. Lookups extrapolate it exactly.
func linLUT(d0, k, ks float64) *liberty.LUT {
	loads := []float64{0, 1e-15, 2e-15, 4e-15, 8e-15}
	slews := []float64{0, 1e-12, 5e-12}
	v := make([][]float64, len(slews))
	for i, s := range slews {
		v[i] = make([]float64, len(loads))
		for j, l := range loads {
			v[i][j] = d0 + k*l + ks*s
		}
	}
	return &liberty.LUT{Slews: slews, Loads: loads, Value: v}
}

// fakeLib builds a deterministic library: every cell has delay
// d0 + k*load (no slew dependence), output slew 1ps, INV input cap 1 fF.
func fakeLib() *liberty.Library {
	mkLUT := func(d0, k float64) *liberty.LUT { return linLUT(d0, k, 0) }
	slewLUT := func() *liberty.LUT { return mkLUT(1e-12, 0) }
	cell := func(name string, inputs []string, d0 float64, cin, area float64) *liberty.Cell {
		c := &liberty.Cell{
			Name: name, Inputs: inputs, Output: "Y",
			InputCap: cin, Area: area,
			Arcs: map[string]*liberty.Arc{},
		}
		for _, in := range inputs {
			c.Arcs[in] = &liberty.Arc{
				From:      in,
				DelayRise: mkLUT(d0, 1e3), DelayFall: mkLUT(d0, 1e3),
				SlewRise: slewLUT(), SlewFall: slewLUT(),
			}
		}
		return c
	}
	return &liberty.Library{
		Name: "fake",
		VDD:  1,
		Cells: map[string]*liberty.Cell{
			"INV":   cell("INV", []string{"A"}, 10e-12, 1e-15, 1e-12),
			"NAND2": cell("NAND2", []string{"A", "B"}, 15e-12, 1.5e-15, 2e-12),
			"NAND3": cell("NAND3", []string{"A", "B", "C"}, 20e-12, 2e-15, 3e-12),
			"NOR2":  cell("NOR2", []string{"A", "B"}, 16e-12, 1.5e-15, 2e-12),
			"NOR3":  cell("NOR3", []string{"A", "B", "C"}, 22e-12, 2e-15, 3e-12),
			"DFF": {
				Name: "DFF", Inputs: []string{"D", "CK"}, Output: "Q",
				InputCap: 2e-15, Area: 8e-12, Sequential: true,
				ClkToQ: 30e-12, Setup: 20e-12,
				Arcs: map[string]*liberty.Arc{},
			},
		},
	}
}

func invChain(n int) *logic.Netlist {
	nl := logic.New("chain")
	s := nl.Input("in")
	for i := 0; i < n; i++ {
		s = nl.Not(s)
	}
	nl.Output("out", s)
	return nl
}

func TestInvChainTiming(t *testing.T) {
	lib := fakeLib()
	nl := invChain(10)
	res, err := AnalyzeNetlist(nl, lib, Wire{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Interior inverters drive one INV (1 fF): delay = 10ps + 1e3*1e-15 =
	// 11ps. The last inverter drives the default output load 2 fF: 12ps.
	want := 9*11e-12 + 12e-12
	if math.Abs(res.CritPath-want) > 1e-15 {
		t.Fatalf("crit = %g, want %g", res.CritPath, want)
	}
	if len(res.Profile) != 10 {
		t.Fatalf("levels = %d, want 10", len(res.Profile))
	}
	if math.Abs(profileSum(res)-res.CritPath) > 1e-18 {
		t.Fatalf("profile sum %g != crit %g", profileSum(res), res.CritPath)
	}
}

func profileSum(r *Result) float64 {
	var s float64
	for _, v := range r.Profile {
		s += v
	}
	return s
}

func TestWireIncreasesDelay(t *testing.T) {
	lib := fakeLib()
	nl := invChain(20)
	w := Wire{ResPerM: 1e6, CapPerM: 2e-10, Pitch: 1e-6}
	dry, err := AnalyzeNetlist(nl, lib, w, Options{UseWire: false})
	if err != nil {
		t.Fatal(err)
	}
	wet, err := AnalyzeNetlist(nl, lib, w, Options{UseWire: true})
	if err != nil {
		t.Fatal(err)
	}
	if wet.CritPath <= dry.CritPath {
		t.Fatalf("wire should slow the path: %g vs %g", wet.CritPath, dry.CritPath)
	}
	if math.Abs(profileSum(wet)-wet.CritPath) > 1e-15*wet.CritPath {
		t.Fatalf("wet profile sum %g != crit %g", profileSum(wet), wet.CritPath)
	}
}

func TestHighFanoutBuffering(t *testing.T) {
	lib := fakeLib()
	nl := logic.New("fanout")
	in := nl.Input("in")
	root := nl.Not(in)
	for i := 0; i < 64; i++ {
		nl.Output("", nl.Not(root))
	}
	d, err := synth.Map(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	rootIdx := 1 // gate order: input, root, leaves...
	if d.BufLevels[rootIdx] != 1 || d.BufCount[rootIdx] != 8 {
		t.Fatalf("buffering = levels %d count %d, want 1/8", d.BufLevels[rootIdx], d.BufCount[rootIdx])
	}
	// Area includes 64 leaves + root + 8 buffers = 73 INVs.
	if want := 73e-12; math.Abs(d.CombArea-want) > 1e-18 {
		t.Fatalf("area = %g, want %g", d.CombArea, want)
	}
	res, err := analyze(d, Wire{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Path: root (sees 8 buffer caps + its own buffer level) + leaf.
	if len(res.Profile) != 2 {
		t.Fatalf("levels = %d, want 2", len(res.Profile))
	}
	unbuffered := invChain(2)
	base, err := AnalyzeNetlist(unbuffered, lib, Wire{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath <= base.CritPath {
		t.Fatal("buffered fanout tree should cost more than a plain 2-chain")
	}
}

func TestConstantsHaveNoNet(t *testing.T) {
	lib := fakeLib()
	nl := logic.New("const")
	in := nl.Input("in")
	zero := nl.Const(false)
	// A wide AND against constant zero: the constant's fanout is large
	// but must not contribute wire delay.
	var outs []logic.Sig
	for i := 0; i < 100; i++ {
		outs = append(outs, nl.Nand(in, zero))
	}
	nl.Output("out", nl.ReduceAnd(outs))
	w := Wire{ResPerM: 1e6, CapPerM: 2e-10, Pitch: 1e-6}
	res, err := AnalyzeNetlist(nl, lib, w, Options{UseWire: true})
	if err != nil {
		t.Fatal(err)
	}
	// With a 100-fanout constant treated as a real net the flight would
	// dwarf gate delays; sanity-bound the path instead.
	if res.CritPath > 100*25e-12 {
		t.Fatalf("constant net leaked into timing: crit = %g", res.CritPath)
	}
}

func TestSlewClamp(t *testing.T) {
	// Every INV output slews 100ps, far above the max_transition bound
	// of 1.5 x 5ps = 7.5ps that the slew grid derives, and each ps of
	// input slew adds 0.1ps of delay.
	lib := fakeLib()
	arc := lib.Cells["INV"].Arcs["A"]
	arc.SlewRise, arc.SlewFall = linLUT(100e-12, 0, 0), linLUT(100e-12, 0, 0)
	arc.DelayRise, arc.DelayFall = linLUT(10e-12, 1e3, 0.1), linLUT(10e-12, 1e3, 0.1)
	res, err := AnalyzeNetlist(invChain(5), lib, Wire{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The primary input switches with the unclamped FO2 slew of 100ps
	// (10ps + 1ps + 10ps); the four inverters behind it see 7.5ps. The
	// last one drives the 2 fF output load. Unclamped, the chain would
	// take 106ps.
	want := 21e-12 + 3*11.75e-12 + 12.75e-12
	if math.Abs(res.CritPath-want) > 1e-15*want {
		t.Fatalf("crit = %g, want %g", res.CritPath, want)
	}
}

func TestResultDoesNotRetainNetlist(t *testing.T) {
	collected := make(chan struct{})
	res, err := func() (*Result, error) {
		nl := invChain(10)
		runtime.SetFinalizer(nl, func(*logic.Netlist) { close(collected) })
		return AnalyzeNetlist(nl, fakeLib(), Wire{}, Options{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for freed := false; !freed; {
		runtime.GC()
		select {
		case <-collected:
			freed = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("the analyzed netlist is still reachable from its Result")
			}
			time.Sleep(time.Millisecond)
		}
	}
	runtime.KeepAlive(res)
}

func TestNetLengthAndFlight(t *testing.T) {
	w := Wire{ResPerM: 1e6, CapPerM: 2e-10, Pitch: 2e-6}
	l1 := w.NetLength(1, 1e-3)
	l4 := w.NetLength(4, 1e-3)
	if l4 <= l1 {
		t.Fatal("net length must grow with fanout")
	}
	if w.NetLength(1, 2e-3) <= l1 {
		t.Fatal("net length must grow with block size")
	}
	// Flight grows quadratically with length (fixed load share).
	f1 := w.Flight(1e-3, 0)
	f2 := w.Flight(2e-3, 0)
	if math.Abs(f2/f1-4) > 1e-9 {
		t.Fatalf("flight scaling = %g, want 4x", f2/f1)
	}
}

func TestMissingOutputs(t *testing.T) {
	lib := fakeLib()
	nl := logic.New("empty")
	nl.Input("in")
	if _, err := AnalyzeNetlist(nl, lib, Wire{}, Options{}); err == nil {
		t.Fatal("expected error for netlist without outputs")
	}
}
