package logic

// fullAdder returns (sum, carry) built from 2 XORs and a carry majority
// (9 NAND-equivalent cells), the standard cell-library decomposition.
func (n *Netlist) fullAdder(a, b, cin Sig) (sum, cout Sig) {
	axb := n.Xor(a, b)
	sum = n.Xor(axb, cin)
	// cout = a&b | cin&(a^b) as NANDs.
	t1 := n.Nand(a, b)
	t2 := n.Nand(axb, cin)
	cout = n.Nand(t1, t2)
	return sum, cout
}

// RippleCarryAdder adds two equal-width buses with carry-in, returning
// the sum and carry-out. Depth is linear in width.
func (n *Netlist) RippleCarryAdder(a, b []Sig, cin Sig) (sum []Sig, cout Sig) {
	if len(a) != len(b) {
		panic("logic: adder width mismatch")
	}
	sum = make([]Sig, len(a))
	c := cin
	for i := range a {
		sum[i], c = n.fullAdder(a[i], b[i], c)
	}
	return sum, c
}

// CLAAdder is a carry-lookahead adder with 4-bit groups (group
// generate/propagate, ripple between groups), the classic DesignWare-ish
// speed/area compromise. Depth is ~width/4 + constant.
func (n *Netlist) CLAAdder(a, b []Sig, cin Sig) (sum []Sig, cout Sig) {
	if len(a) != len(b) {
		panic("logic: adder width mismatch")
	}
	w := len(a)
	sum = make([]Sig, w)
	c := cin
	for g := 0; g < w; g += 4 {
		hi := g + 4
		if hi > w {
			hi = w
		}
		// Bit generate/propagate.
		var gen, prop []Sig
		for i := g; i < hi; i++ {
			gen = append(gen, n.And(a[i], b[i]))
			prop = append(prop, n.Xor(a[i], b[i]))
		}
		// Carries within the group from the group carry-in.
		carries := make([]Sig, len(gen)+1)
		carries[0] = c
		for i := range gen {
			// c[i+1] = g[i] | p[i]&c[i]
			carries[i+1] = n.Nand(n.Not(gen[i]), n.Nand(prop[i], carries[i]))
		}
		for i := g; i < hi; i++ {
			sum[i] = n.Xor(prop[i-g], carries[i-g])
		}
		// Group lookahead carry: G* = g3 | p3g2 | p3p2g1 | p3p2p1g0;
		// P* = p3p2p1p0; c_next = G* | P*cin.
		gg := gen[len(gen)-1]
		for i := len(gen) - 2; i >= 0; i-- {
			pp := n.ReduceAnd(prop[i+1:])
			gg = n.Or(gg, n.And(pp, gen[i]))
		}
		pAll := n.ReduceAnd(prop)
		c = n.Or(gg, n.And(pAll, c))
	}
	return sum, c
}

// KoggeStoneAdder is a log-depth parallel-prefix adder: bitwise
// generate/propagate, a Kogge-Stone prefix tree, then sum formation.
// It trades substantially more area (and, in silicon, wire) for the
// lowest logic depth — the ablation counterpart to the 4-bit-group CLA.
func (n *Netlist) KoggeStoneAdder(a, b []Sig, cin Sig) (sum []Sig, cout Sig) {
	if len(a) != len(b) {
		panic("logic: adder width mismatch")
	}
	w := len(a)
	gen := make([]Sig, w)
	prop := make([]Sig, w)
	for i := 0; i < w; i++ {
		gen[i] = n.And(a[i], b[i])
		prop[i] = n.Xor(a[i], b[i])
	}
	// Prefix tree over (g, p) with the carry operator:
	// (g, p) o (g', p') = (g + p*g', p*p').
	g := append([]Sig(nil), gen...)
	p := append([]Sig(nil), prop...)
	for shift := 1; shift < w; shift *= 2 {
		ng := append([]Sig(nil), g...)
		np := append([]Sig(nil), p...)
		for i := shift; i < w; i++ {
			ng[i] = n.Or(g[i], n.And(p[i], g[i-shift]))
			np[i] = n.And(p[i], p[i-shift])
		}
		g, p = ng, np
	}
	// Carry into bit i: c[i] = g[0..i-1] + P[0..i-1]*cin.
	sum = make([]Sig, w)
	carry := cin
	for i := 0; i < w; i++ {
		sum[i] = n.Xor(prop[i], carry)
		carry = n.Or(g[i], n.And(p[i], cin))
	}
	return sum, carry
}

// Subtractor computes a - b (two's complement) returning difference and
// "no-borrow" (carry-out, 1 when a >= b for unsigned operands).
func (n *Netlist) Subtractor(a, b []Sig) (diff []Sig, noBorrow Sig) {
	nb := make([]Sig, len(b))
	for i := range b {
		nb[i] = n.Not(b[i])
	}
	return n.CLAAdder(a, nb, n.Const(true))
}

// CSAMultiplier multiplies two w-bit buses into a 2w-bit product with a
// carry-save (Wallace-style) 3:2 reduction tree and a final
// carry-lookahead adder — the DesignWare-class structure whose log depth
// makes deep pipelining meaningful (Figure 12).
func (n *Netlist) CSAMultiplier(a, b []Sig) []Sig {
	w := len(a)
	if len(b) != w {
		panic("logic: multiplier width mismatch")
	}
	zero := n.Const(false)
	rows := make([][]Sig, w)
	for i := range rows {
		row := make([]Sig, 2*w)
		for j := range row {
			row[j] = zero
		}
		for j := 0; j < w; j++ {
			row[i+j] = n.And(a[j], b[i])
		}
		rows[i] = row
	}
	for len(rows) > 2 {
		var next [][]Sig
		i := 0
		for ; i+3 <= len(rows); i += 3 {
			sum := make([]Sig, 2*w)
			carry := make([]Sig, 2*w)
			carry[0] = zero
			for j := 0; j < 2*w; j++ {
				s, c := n.fullAdder(rows[i][j], rows[i+1][j], rows[i+2][j])
				sum[j] = s
				if j+1 < 2*w {
					carry[j+1] = c
				}
			}
			next = append(next, sum, carry)
		}
		next = append(next, rows[i:]...)
		rows = next
	}
	res, _ := n.CLAAdder(rows[0], rows[1], zero)
	return res
}

// DividerStep is one restoring-division iteration datapath (the
// combinational core of a stallable iterative divider): subtract the
// divisor from the partial remainder and keep the difference when it is
// non-negative. The quotient bit is the no-borrow flag.
func (n *Netlist) DividerStep(rem, b []Sig) (remNext []Sig, qbit Sig) {
	diff, ge := n.Subtractor(rem, b)
	return n.MuxBus(ge, rem, diff), ge
}

// Equal returns 1 when the buses match (XNOR + AND tree).
func (n *Netlist) Equal(a, b []Sig) Sig {
	if len(a) != len(b) {
		panic("logic: Equal width mismatch")
	}
	eqs := make([]Sig, len(a))
	for i := range a {
		eqs[i] = n.Xnor(a[i], b[i])
	}
	return n.ReduceAnd(eqs)
}

// BuildComplexALU returns the paper's complex-ALU netlist: a w-bit
// carry-save-tree multiplier plus the per-iteration datapath of a
// stallable restoring divider, with an opcode-muxed result — the block
// pipelined in the Figure 12 experiment. (DesignWare's stallable
// divider iterates; only its per-cycle datapath is combinational.)
func BuildComplexALU(w int) *Netlist {
	n := New("complex-alu")
	a := n.InputBus("a", w)
	b := n.InputBus("b", w)
	rem := n.InputBus("rem", w)
	isDiv := n.Input("is_div")
	p := n.CSAMultiplier(a, b)
	remNext, qbit := n.DividerStep(rem, b)
	out := n.MuxBus(isDiv, p[:w], remNext)
	n.OutputBus("y", out)
	n.OutputBus("phi", p[w:])
	n.Output("qbit", qbit)
	return n
}
