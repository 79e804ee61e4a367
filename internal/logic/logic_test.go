package logic

import (
	"testing"
	"testing/quick"
)

// run evaluates a fresh netlist with input buses packed from values.
func evalBuses(n *Netlist, buses map[string]uint64, width map[string]int, single map[string]bool) []bool {
	in := make([]bool, len(n.Inputs))
	pos := map[Sig]int{}
	for i, s := range n.Inputs {
		pos[s] = i
	}
	for name, v := range buses {
		w := width[name]
		for i := 0; i < w; i++ {
			s, ok := n.InName[busBit(name, i)]
			if !ok {
				panic("missing input " + busBit(name, i))
			}
			in[pos[s]] = v&(1<<uint(i)) != 0
		}
	}
	for name, v := range single {
		s, ok := n.InName[name]
		if !ok {
			panic("missing input " + name)
		}
		in[pos[s]] = v
	}
	return n.Eval(in)
}

func busBit(name string, i int) string { return name + "[" + itoa(i) + "]" }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// busValue packs a bus value (bit 0 = bus[0]) from an evaluation table.
func busValue(vals []bool, bus []Sig) uint64 {
	var v uint64
	for i, s := range bus {
		if vals[s] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// evalOutputs evaluates n and returns its primary outputs in order.
func evalOutputs(n *Netlist, inputs []bool) []bool {
	vals := n.Eval(inputs)
	out := make([]bool, len(n.Outputs))
	for i, s := range n.Outputs {
		out[i] = vals[s]
	}
	return out
}

// claAdder returns a standalone w-bit CLA adder netlist.
func claAdder(w int) *Netlist {
	n := New("adder")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	sum, cout := n.CLAAdder(a, b, n.Const(false))
	n.OutputBus("sum", sum)
	n.Output("cout", cout)
	return n
}

// depth returns the combinational cell count and unit-delay logic depth.
func depth(n *Netlist) (gates, levels int) {
	d := make([]int, len(n.Gates))
	for i, g := range n.Gates {
		if g.Kind.CellName() == "" {
			continue
		}
		gates++
		for k := 0; k < g.Kind.Arity(); k++ {
			d[i] = max(d[i], d[g.In[k]])
		}
		d[i]++
		levels = max(levels, d[i])
	}
	return gates, levels
}

func outBus(n *Netlist, name string, w int) []Sig {
	bus := make([]Sig, w)
	for i := range bus {
		s, ok := n.OutName[busBit(name, i)]
		if !ok {
			panic("missing output " + busBit(name, i))
		}
		bus[i] = s
	}
	return bus
}

func TestBasicGates(t *testing.T) {
	n := New("basic")
	a := n.Input("a")
	b := n.Input("b")
	n.Output("and", n.And(a, b))
	n.Output("or", n.Or(a, b))
	n.Output("xor", n.Xor(a, b))
	n.Output("mux", n.Mux(a, b, n.Const(true))) // a ? 1 : b
	for mask := 0; mask < 4; mask++ {
		av, bv := mask&1 != 0, mask&2 != 0
		out := evalOutputs(n, []bool{av, bv})
		if out[0] != (av && bv) || out[1] != (av || bv) || out[2] != (av != bv) {
			t.Fatalf("mask %d: and/or/xor = %v", mask, out[:3])
		}
		wantMux := bv
		if av {
			wantMux = true
		}
		if out[3] != wantMux {
			t.Fatalf("mask %d: mux = %v want %v", mask, out[3], wantMux)
		}
	}
}

func TestReduceTrees(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 9} {
		n := New("reduce")
		bus := n.InputBus("x", k)
		n.Output("and", n.ReduceAnd(bus))
		n.Output("or", n.ReduceOr(bus))
		for mask := 0; mask < 1<<k; mask++ {
			in := make([]bool, k)
			all, any := true, false
			for i := range in {
				in[i] = mask&(1<<i) != 0
				all = all && in[i]
				any = any || in[i]
			}
			out := evalOutputs(n, in)
			if out[0] != all || out[1] != any {
				t.Fatalf("k=%d mask=%b: got %v want %v/%v", k, mask, out, all, any)
			}
		}
	}
}

func TestAddersAgree(t *testing.T) {
	const w = 16
	mask := uint64(1)<<w - 1
	ripple := New("ripple")
	ra := ripple.InputBus("a", w)
	rb := ripple.InputBus("b", w)
	rs, rc := ripple.RippleCarryAdder(ra, rb, ripple.Const(false))
	ripple.OutputBus("sum", rs)
	ripple.Output("cout", rc)

	cla := claAdder(w)
	prop := func(x, y uint16) bool {
		want := uint64(x) + uint64(y)
		vals := evalBuses(ripple, map[string]uint64{"a": uint64(x), "b": uint64(y)}, map[string]int{"a": w, "b": w}, nil)
		got := busValue(vals, rs)
		if vals[rc] {
			got |= 1 << w
		}
		if got != want {
			return false
		}
		cv := evalBuses(cla, map[string]uint64{"a": uint64(x), "b": uint64(y)}, map[string]int{"a": w, "b": w}, nil)
		cg := busValue(cv, outBus(cla, "sum", w))
		return cg == want&mask
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSubtractor(t *testing.T) {
	const w = 12
	n := New("sub")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	d, nb := n.Subtractor(a, b)
	n.OutputBus("d", d)
	n.Output("nb", nb)
	prop := func(x, y uint16) bool {
		xa, ya := uint64(x)&0xfff, uint64(y)&0xfff
		vals := evalBuses(n, map[string]uint64{"a": xa, "b": ya}, map[string]int{"a": w, "b": w}, nil)
		diff := busValue(vals, d)
		want := (xa - ya) & 0xfff
		if diff != want {
			return false
		}
		return vals[nb] == (xa >= ya)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualLessThan(t *testing.T) {
	const w = 8
	n := New("cmp")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	n.Output("eq", n.Equal(a, b))
	_, noBorrow := n.Subtractor(a, b)
	n.Output("lt", n.Not(noBorrow))
	prop := func(x, y uint8) bool {
		vals := evalBuses(n, map[string]uint64{"a": uint64(x), "b": uint64(y)}, map[string]int{"a": w, "b": w}, nil)
		eq := vals[n.OutName["eq"]]
		lt := vals[n.OutName["lt"]]
		return eq == (x == y) && lt == (x < y)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxTreeAndDecoder(t *testing.T) {
	n := New("muxdec")
	sel := n.InputBus("sel", 2)
	ins := make([][]Sig, 4)
	for i := range ins {
		ins[i] = n.InputBus(itoa(i), 4)
	}
	n.OutputBus("y", n.MuxTree(sel, ins))
	n.OutputBus("onehot", n.Decoder(sel))
	y := outBus(n, "y", 4)
	oh := outBus(n, "onehot", 4)
	for s := uint64(0); s < 4; s++ {
		buses := map[string]uint64{"sel": s, "0": 1, "1": 5, "2": 9, "3": 14}
		widths := map[string]int{"sel": 2, "0": 4, "1": 4, "2": 4, "3": 4}
		vals := evalBuses(n, buses, widths, nil)
		want := []uint64{1, 5, 9, 14}[s]
		if got := busValue(vals, y); got != want {
			t.Fatalf("sel=%d: mux %d want %d", s, got, want)
		}
		if got := busValue(vals, oh); got != 1<<s {
			t.Fatalf("sel=%d: onehot %b", s, got)
		}
	}
}

func TestPriorityArbiterAndSelectN(t *testing.T) {
	n := New("arb")
	reqs := n.InputBus("r", 6)
	grants := n.SelectN(reqs, 2)
	n.OutputBus("g0", grants[0])
	n.OutputBus("g1", grants[1])
	g0 := outBus(n, "g0", 6)
	g1 := outBus(n, "g1", 6)
	for mask := uint64(0); mask < 64; mask++ {
		vals := evalBuses(n, map[string]uint64{"r": mask}, map[string]int{"r": 6}, nil)
		got0 := busValue(vals, g0)
		got1 := busValue(vals, g1)
		var want0, want1 uint64
		rem := mask
		if rem != 0 {
			want0 = rem & (-rem) // lowest set bit
			rem &^= want0
		}
		if rem != 0 {
			want1 = rem & (-rem)
		}
		if got0 != want0 || got1 != want1 {
			t.Fatalf("mask=%b: grants %b/%b want %b/%b", mask, got0, got1, want0, want1)
		}
	}
}

func TestWakeupCAMAndBypass(t *testing.T) {
	iq := BuildIssueSelect(4, 2, 3)
	// Entry 1's srcA matches result 0; entry 3's srcB matches result 1.
	buses := map[string]uint64{
		"srcA0": 1, "srcB0": 2,
		"srcA1": 5, "srcB1": 2,
		"srcA2": 1, "srcB2": 2,
		"srcA3": 1, "srcB3": 6,
		"res0": 5, "res1": 6,
		"valid": 0b1111,
	}
	widths := map[string]int{"valid": 4}
	for k := range buses {
		if k != "valid" {
			widths[k] = 3
		}
	}
	vals := evalBuses(iq, buses, widths, nil)
	g0 := busValue(vals, outBus(iq, "grant0", 4))
	g1 := busValue(vals, outBus(iq, "grant1", 4))
	if g0 != 0b0010 || g1 != 0b1000 {
		t.Fatalf("grants %b/%b, want 0010/1000", g0, g1)
	}

	by := New("bypass")
	resTags := [][]Sig{by.InputBus("rtag0", 3), by.InputBus("rtag1", 3)}
	resVals := [][]Sig{by.InputBus("rval0", 8), by.InputBus("rval1", 8)}
	for _, op := range []string{"p0op0", "p0op1", "p1op0", "p1op1"} {
		tag, reg := by.InputBus(op+"tag", 3), by.InputBus(op+"reg", 8)
		by.OutputBus(op, by.BypassNetwork(tag, reg, resTags, resVals))
	}
	buses = map[string]uint64{
		"rtag0": 3, "rval0": 0xAA,
		"rtag1": 5, "rval1": 0x55,
		"p0op0tag": 3, "p0op0reg": 0x11, // matches result 0
		"p0op1tag": 7, "p0op1reg": 0x22, // no match -> regfile
		"p1op0tag": 5, "p1op0reg": 0x33, // matches result 1
		"p1op1tag": 3, "p1op1reg": 0x44,
	}
	widths = map[string]int{}
	for k := range buses {
		if len(k) > 4 && k[len(k)-3:] == "reg" || k[:4] == "rval" {
			widths[k] = 8
		} else {
			widths[k] = 3
		}
	}
	vals = evalBuses(by, buses, widths, nil)
	checks := map[string]uint64{"p0op0": 0xAA, "p0op1": 0x22, "p1op0": 0x55, "p1op1": 0xAA}
	for name, want := range checks {
		if got := busValue(vals, outBus(by, name, 8)); got != want {
			t.Fatalf("%s = %#x, want %#x", name, got, want)
		}
	}
}

func TestRegisterFileRead(t *testing.T) {
	n := BuildRegfileRead(8, 4, 2)
	buses := map[string]uint64{"addr0": 3, "addr1": 6}
	widths := map[string]int{"addr0": 3, "addr1": 3}
	for r := 0; r < 8; r++ {
		buses["reg"+itoa(r)] = uint64(r + 1)
		widths["reg"+itoa(r)] = 4
	}
	vals := evalBuses(n, buses, widths, nil)
	if got := busValue(vals, outBus(n, "rd0", 4)); got != 4 {
		t.Fatalf("rd0 = %d, want 4", got)
	}
	if got := busValue(vals, outBus(n, "rd1", 4)); got != 7 {
		t.Fatalf("rd1 = %d, want 7", got)
	}
}

func TestComplexALUSelect(t *testing.T) {
	const w = 8
	n := BuildComplexALU(w)
	y := outBus(n, "y", w)
	run := func(a, b, rem uint64, div bool) (uint64, bool) {
		vals := evalBuses(n, map[string]uint64{"a": a, "b": b, "rem": rem},
			map[string]int{"a": w, "b": w, "rem": w}, map[string]bool{"is_div": div})
		return busValue(vals, y), vals[n.OutName["qbit"]]
	}
	if got, _ := run(12, 5, 0, false); got != 60 {
		t.Fatalf("mul: %d want 60", got)
	}
	// One restoring-divider iteration: subtract when possible.
	if got, q := run(0, 9, 200, true); got != 191 || !q {
		t.Fatalf("div step: %d q=%v, want 191 true", got, q)
	}
	if got, q := run(0, 9, 5, true); got != 5 || q {
		t.Fatalf("div step: %d q=%v, want 5 false", got, q)
	}
}

func TestCSAMultiplier(t *testing.T) {
	const w = 12
	n := New("csa")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	n.OutputBus("p", n.CSAMultiplier(a, b))
	p := outBus(n, "p", 2*w)
	prop := func(x, y uint16) bool {
		xa, ya := uint64(x)&0xfff, uint64(y)&0xfff
		vals := evalBuses(n, map[string]uint64{"a": xa, "b": ya}, map[string]int{"a": w, "b": w}, nil)
		return busValue(vals, p) == xa*ya
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// The 3:2 tree adds a stage per 1.5x rows and the final 2w-bit CLA
	// about two levels per operand bit, so doubling the width adds
	// fewer than 4 levels per bit; a ripple-row array adds about 10.
	wide := New("csa-wide")
	wide.OutputBus("p", wide.CSAMultiplier(wide.InputBus("a", 2*w), wide.InputBus("b", 2*w)))
	_, d1 := depth(n)
	_, d2 := depth(wide)
	if d2-d1 >= 4*w {
		t.Fatalf("CSA depth grows from %d to %d levels over %d more bits", d1, d2, w)
	}
}

func TestStatsAndFanouts(t *testing.T) {
	n := claAdder(8)
	gates, levels := depth(n)
	if gates < 50 {
		t.Fatalf("8-bit CLA too small: %d gates", gates)
	}
	if levels < 4 {
		t.Fatalf("8-bit CLA too shallow: %d levels", levels)
	}
	fo := n.Fanouts()
	if len(fo) != len(n.Gates) {
		t.Fatal("fanout table size mismatch")
	}
	// Every non-output gate should drive something.
	outs := map[Sig]bool{}
	for _, o := range n.Outputs {
		outs[o] = true
	}
	for i := range n.Gates {
		if len(fo[i]) == 0 && !outs[Sig(i)] && n.Gates[i].Kind.CellName() != "" {
			// Dangling gates are allowed (dead logic) but should be rare;
			// the adder generator should not produce them in bulk.
			t.Logf("gate %d (%v) dangles", i, n.Gates[i].Kind)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for in, want := range cases {
		if got := Log2Ceil(in); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestKoggeStoneAdder(t *testing.T) {
	const w = 16
	n := New("ks")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	sum, cout := n.KoggeStoneAdder(a, b, n.Const(false))
	n.OutputBus("sum", sum)
	n.Output("cout", cout)
	prop := func(x, y uint16) bool {
		want := uint64(x) + uint64(y)
		vals := evalBuses(n, map[string]uint64{"a": uint64(x), "b": uint64(y)},
			map[string]int{"a": w, "b": w}, nil)
		got := busValue(vals, sum)
		if vals[cout] {
			got |= 1 << w
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Carry-in path.
	n2 := New("ks-cin")
	a2 := n2.InputBus("a", w)
	b2 := n2.InputBus("b", w)
	s2, _ := n2.KoggeStoneAdder(a2, b2, n2.Const(true))
	n2.OutputBus("sum", s2)
	vals := evalBuses(n2, map[string]uint64{"a": 1, "b": 2}, map[string]int{"a": w, "b": w}, nil)
	if got := busValue(vals, s2); got != 4 {
		t.Fatalf("1+2+cin = %d, want 4", got)
	}
	// Depth: Kogge-Stone must be shallower than the group CLA, at more gates.
	ksGates, ksLevels := depth(n)
	claGates, claLevels := depth(claAdder(w))
	if ksLevels >= claLevels {
		t.Errorf("Kogge-Stone depth %d should beat CLA depth %d", ksLevels, claLevels)
	}
	if ksGates <= claGates*2/3 {
		t.Errorf("Kogge-Stone should pay area for speed: %d vs %d gates", ksGates, claGates)
	}
}

func TestSelectPrefixMatchesSerialSelect(t *testing.T) {
	// The parallel prefix W-of-N selector must grant exactly the same
	// entries as W rounds of serial priority arbitration.
	const N = 12
	for _, w := range []int{1, 2, 3, 5} {
		serial := New("serial")
		sr := serial.InputBus("r", N)
		for k, g := range serial.SelectN(sr, w) {
			serial.OutputBus("g"+itoa(k), g)
		}
		par := New("prefix")
		pr := par.InputBus("r", N)
		for k, g := range par.SelectPrefix(pr, w) {
			par.OutputBus("g"+itoa(k), g)
		}
		for mask := uint64(0); mask < 1<<N; mask += 37 { // stride the space
			sv := evalBuses(serial, map[string]uint64{"r": mask}, map[string]int{"r": N}, nil)
			pv := evalBuses(par, map[string]uint64{"r": mask}, map[string]int{"r": N}, nil)
			var sAll, pAll uint64
			for k := 0; k < w; k++ {
				sg := busValue(sv, outBus(serial, "g"+itoa(k), N))
				pg := busValue(pv, outBus(par, "g"+itoa(k), N))
				if sg != pg {
					t.Fatalf("w=%d mask=%b round %d: serial %b vs prefix %b", w, mask, k, sg, pg)
				}
				sAll |= sg
				pAll |= pg
			}
			_ = sAll
			_ = pAll
		}
	}
}

func TestReduceOrAOIMatchesReduceOr(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 10} {
		n := New("aoi")
		bus := n.InputBus("x", k)
		n.Output("a", n.ReduceOr(bus))
		n.Output("b", n.ReduceOrAOI(bus))
		for mask := 0; mask < 1<<k; mask++ {
			in := make([]bool, k)
			for i := range in {
				in[i] = mask&(1<<i) != 0
			}
			out := evalOutputs(n, in)
			if out[0] != out[1] {
				t.Fatalf("k=%d mask=%b: AOI OR diverges", k, mask)
			}
		}
	}
}

func TestMuxTreePanicsOnShortSelect(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing select bits")
		}
	}()
	n := New("p")
	ins := [][]Sig{n.InputBus("a", 2), n.InputBus("b", 2), n.InputBus("c", 2)}
	n.MuxTree(n.InputBus("s", 1), ins)
}
