package logic

import "fmt"

// MuxTree selects one of len(inputs) equal-width buses using binary
// select bits (len(sel) >= Log2Ceil(len(inputs))). Missing leaves read
// as the last input.
func (n *Netlist) MuxTree(sel []Sig, inputs [][]Sig) []Sig {
	if len(inputs) == 0 {
		panic("logic: MuxTree with no inputs")
	}
	cur := inputs
	for s := 0; len(cur) > 1; s++ {
		if s >= len(sel) {
			panic(fmt.Sprintf("logic: MuxTree needs %d select bits, got %d", Log2Ceil(len(inputs)), len(sel)))
		}
		var next [][]Sig
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i])
				continue
			}
			next = append(next, n.MuxBus(sel[s], cur[i], cur[i+1]))
		}
		cur = next
	}
	return cur[0]
}

// Decoder produces the 2^len(sel) one-hot outputs of a binary decoder.
func (n *Netlist) Decoder(sel []Sig) []Sig {
	out := []Sig{n.Const(true)}
	for _, s := range sel {
		ns := n.Not(s)
		next := make([]Sig, 0, len(out)*2)
		for _, o := range out {
			next = append(next, n.And(o, ns))
		}
		for _, o := range out {
			next = append(next, n.And(o, s))
		}
		out = next
	}
	return out
}

// PriorityArbiter returns the one-hot grant vector for a fixed-priority
// arbiter (index 0 highest priority), built with a Kogge-Stone prefix-OR
// network (log depth in the request count).
func (n *Netlist) PriorityArbiter(reqs []Sig) []Sig {
	N := len(reqs)
	// blocked[i] = OR of reqs[0..i) (exclusive prefix OR).
	blocked := make([]Sig, N)
	zero := n.Const(false)
	for i := range blocked {
		if i == 0 {
			blocked[0] = zero
		} else {
			blocked[i] = reqs[i-1]
		}
	}
	for shift := 1; shift < N; shift *= 2 {
		next := make([]Sig, N)
		copy(next, blocked)
		for i := shift; i < N; i++ {
			next[i] = n.Or(blocked[i], blocked[i-shift])
		}
		blocked = next
	}
	grants := make([]Sig, N)
	for i, r := range reqs {
		if i == 0 {
			grants[0] = r
			continue
		}
		grants[i] = n.And(r, n.Not(blocked[i]))
	}
	return grants
}

// SelectN performs W rounds of priority selection (the issue-select
// logic of a W-wide back end): each round grants the highest-priority
// remaining request. Returns one grant vector per round. Cost and depth
// grow with both the entry count and W — the width experiment's select
// path.
func (n *Netlist) SelectN(reqs []Sig, w int) [][]Sig {
	remaining := append([]Sig(nil), reqs...)
	grants := make([][]Sig, w)
	for round := 0; round < w; round++ {
		g := n.PriorityArbiter(remaining)
		grants[round] = g
		if round == w-1 {
			break
		}
		next := make([]Sig, len(remaining))
		for i := range remaining {
			next[i] = n.And(remaining[i], n.Not(g[i]))
		}
		remaining = next
	}
	return grants
}

// SelectPrefix performs W-of-N selection with a parallel prefix
// popcount network (grant request i to port k when exactly k requests
// precede it), the structure wide issue stages use to keep select depth
// logarithmic in the entry count and nearly independent of W.
func (n *Netlist) SelectPrefix(reqs []Sig, w int) [][]Sig {
	N := len(reqs)
	bits := Log2Ceil(w + 1)
	if bits < 1 {
		bits = 1
	}
	zero := n.Const(false)
	// counts[i] = popcount(reqs[0..i)), computed with a Kogge-Stone
	// parallel prefix of saturating small adders: log depth in N,
	// independent of w. Values clamp at all-ones, which never matches a
	// port index, so overflowed positions simply receive no grant.
	satBits := bits
	if satBits < 3 {
		satBits = 3
	}
	counts := make([][]Sig, N)
	for i := range counts {
		c := make([]Sig, satBits)
		for b := range c {
			c[b] = zero
		}
		if i > 0 {
			c[0] = reqs[i-1] // exclusive prefix seed
		}
		counts[i] = c
	}
	satAdd := func(a, b []Sig) []Sig {
		out := make([]Sig, satBits)
		carry := zero
		for k := 0; k < satBits; k++ {
			s, c := n.fullAdder(a[k], b[k], carry)
			out[k] = s
			carry = c
		}
		// Saturate: on overflow force all ones.
		for k := 0; k < satBits; k++ {
			out[k] = n.Or(out[k], carry)
		}
		return out
	}
	for shift := 1; shift < N; shift *= 2 {
		next := make([][]Sig, N)
		copy(next, counts)
		for i := shift; i < N; i++ {
			next[i] = satAdd(counts[i], counts[i-shift])
		}
		counts = next
	}
	grants := make([][]Sig, w)
	for k := 0; k < w; k++ {
		grants[k] = make([]Sig, N)
		kBits := make([]Sig, satBits)
		for b := 0; b < satBits; b++ {
			if k&(1<<b) != 0 {
				kBits[b] = n.Const(true)
			} else {
				kBits[b] = zero
			}
		}
		for i := 0; i < N; i++ {
			grants[k][i] = n.And(reqs[i], n.Equal(counts[i], kBits))
		}
	}
	return grants
}

// ReduceOrAOI computes the OR of the signals with alternating NOR/NAND
// levels (an inverter-free and-or-invert mapping): one gate level per
// 3-ary tree stage, half the depth of the INV-restoring ReduceOr. This
// is how synthesized match-line merges are mapped.
func (n *Netlist) ReduceOrAOI(sigs []Sig) Sig {
	if len(sigs) == 0 {
		return n.Const(false)
	}
	cur := append([]Sig(nil), sigs...)
	inverted := false
	for len(cur) > 1 {
		var next []Sig
		for i := 0; i < len(cur); i += 3 {
			j := i + 3
			if j > len(cur) {
				j = len(cur)
			}
			grp := cur[i:j]
			var g Sig
			if !inverted {
				// NOR of true inputs -> inverted OR partial.
				switch len(grp) {
				case 1:
					g = n.Not(grp[0])
				case 2:
					g = n.Nor(grp[0], grp[1])
				default:
					g = n.Nor3g(grp[0], grp[1], grp[2])
				}
			} else {
				// NAND of inverted inputs -> true OR partial.
				switch len(grp) {
				case 1:
					g = n.Not(grp[0])
				case 2:
					g = n.Nand(grp[0], grp[1])
				default:
					g = n.Nand3g(grp[0], grp[1], grp[2])
				}
			}
			next = append(next, g)
		}
		cur = next
		inverted = !inverted
	}
	if inverted {
		return n.Not(cur[0])
	}
	return cur[0]
}

// WakeupCAM computes per-entry readiness: entry i is woken when either
// of its two source tags matches any of the broadcast result tags (the
// issue-queue wakeup CAM). Entries and results are tag buses. The match
// lines merge through an AOI tree (see ReduceOrAOI), as in array-style
// issue-queue layouts.
func (n *Netlist) WakeupCAM(srcA, srcB [][]Sig, results [][]Sig) []Sig {
	ready := make([]Sig, len(srcA))
	for i := range srcA {
		var hits []Sig
		for _, r := range results {
			hits = append(hits, n.Equal(srcA[i], r), n.Equal(srcB[i], r))
		}
		ready[i] = n.ReduceOrAOI(hits)
	}
	return ready
}

// BypassNetwork builds the operand bypass for one source operand of one
// execution pipe: compare the operand tag against nResults producer
// tags, then select among the producer values and the register-file
// value. The result-bus fan-in is what grows with back-end width.
func (n *Netlist) BypassNetwork(opTag []Sig, regVal []Sig, resTags [][]Sig, resVals [][]Sig) []Sig {
	w := len(regVal)
	matches := make([]Sig, len(resTags))
	for i := range resTags {
		matches[i] = n.Equal(opTag, resTags[i])
	}
	// One-hot select: value = (no match -> regVal) OR_i (match_i & val_i).
	anyMatch := n.ReduceOr(matches)
	out := make([]Sig, w)
	for bit := 0; bit < w; bit++ {
		terms := make([]Sig, 0, len(resTags)+1)
		for i := range resTags {
			terms = append(terms, n.And(matches[i], resVals[i][bit]))
		}
		terms = append(terms, n.And(n.Not(anyMatch), regVal[bit]))
		out[bit] = n.ReduceOr(terms)
	}
	return out
}

// RegisterFileRead models one read port of a regs x width register file:
// a full decoder on the address plus a one-hot AND-OR read mux per bit.
// The register contents are primary inputs (state elements live outside
// the combinational netlist).
func (n *Netlist) RegisterFileRead(addr []Sig, regs [][]Sig) []Sig {
	onehot := n.Decoder(addr)
	width := len(regs[0])
	out := make([]Sig, width)
	for bit := 0; bit < width; bit++ {
		terms := make([]Sig, len(regs))
		for r := range regs {
			terms[r] = n.And(onehot[r], regs[r][bit])
		}
		out[bit] = n.ReduceOr(terms)
	}
	return out
}

// BuildIssueSelect returns a standalone netlist for the wakeup+select
// loop of an iqEntries-entry issue queue feeding a w-wide back end with
// tagBits physical-register tags.
func BuildIssueSelect(iqEntries, w, tagBits int) *Netlist {
	n := New(fmt.Sprintf("issue-w%d", w))
	srcA := make([][]Sig, iqEntries)
	srcB := make([][]Sig, iqEntries)
	for i := range srcA {
		srcA[i] = n.InputBus(fmt.Sprintf("srcA%d", i), tagBits)
		srcB[i] = n.InputBus(fmt.Sprintf("srcB%d", i), tagBits)
	}
	results := make([][]Sig, w)
	for i := range results {
		results[i] = n.InputBus(fmt.Sprintf("res%d", i), tagBits)
	}
	valid := n.InputBus("valid", iqEntries)
	woken := n.WakeupCAM(srcA, srcB, results)
	reqs := make([]Sig, iqEntries)
	for i := range reqs {
		reqs[i] = n.And(woken[i], valid[i])
	}
	grants := n.SelectPrefix(reqs, w)
	for r, g := range grants {
		n.OutputBus(fmt.Sprintf("grant%d", r), g)
	}
	return n
}

// BuildRegfileRead returns a standalone netlist with `ports` read ports
// over a regs x width register file.
func BuildRegfileRead(regs, width, ports int) *Netlist {
	n := New(fmt.Sprintf("regfile-r%d", ports))
	state := make([][]Sig, regs)
	for r := range state {
		state[r] = n.InputBus(fmt.Sprintf("reg%d", r), width)
	}
	ab := Log2Ceil(regs)
	for p := 0; p < ports; p++ {
		addr := n.InputBus(fmt.Sprintf("addr%d", p), ab)
		n.OutputBus(fmt.Sprintf("rd%d", p), n.RegisterFileRead(addr, state))
	}
	return n
}
