package logic

import (
	"fmt"
	"math/bits"
)

// Kind enumerates gate types. Only the 6 library cells (plus structural
// pseudo-gates) exist, matching the trimmed libraries of the paper.
type Kind uint8

// Gate kinds.
const (
	Input Kind = iota // primary input (or register output)
	Const0
	Const1
	Inv
	Nand2
	Nand3
	Nor2
	Nor3
	numKinds
)

var kindNames = [numKinds]string{"INPUT", "CONST0", "CONST1", "INV", "NAND2", "NAND3", "NOR2", "NOR3"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// CellName returns the library cell name for a combinational kind
// ("" for structural kinds).
func (k Kind) CellName() string {
	switch k {
	case Inv:
		return "INV"
	case Nand2:
		return "NAND2"
	case Nand3:
		return "NAND3"
	case Nor2:
		return "NOR2"
	case Nor3:
		return "NOR3"
	}
	return ""
}

// Arity returns the fan-in count of the kind.
func (k Kind) Arity() int {
	switch k {
	case Inv:
		return 1
	case Nand2, Nor2:
		return 2
	case Nand3, Nor3:
		return 3
	}
	return 0
}

// Sig identifies a gate output (a signal) within a netlist.
type Sig int32

// Gate is one node of the netlist DAG.
type Gate struct {
	Kind Kind
	In   [3]Sig // valid up to Kind.Arity()
}

// Netlist is a combinational gate-level DAG. Gates are stored in
// topological order by construction (a gate's inputs always precede it).
type Netlist struct {
	Name    string
	Gates   []Gate
	Inputs  []Sig          // primary inputs, in declaration order
	Outputs []Sig          // primary outputs, in declaration order
	InName  map[string]Sig // named inputs (optional)
	OutName map[string]Sig // named outputs (optional)
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{
		Name:    name,
		InName:  map[string]Sig{},
		OutName: map[string]Sig{},
	}
}

func (n *Netlist) add(g Gate) Sig {
	n.Gates = append(n.Gates, g)
	return Sig(len(n.Gates) - 1)
}

// Input declares a named primary input.
func (n *Netlist) Input(name string) Sig {
	s := n.add(Gate{Kind: Input})
	n.Inputs = append(n.Inputs, s)
	if name != "" {
		n.InName[name] = s
	}
	return s
}

// InputBus declares width named inputs name[0..width).
func (n *Netlist) InputBus(name string, width int) []Sig {
	bus := make([]Sig, width)
	for i := range bus {
		bus[i] = n.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Output marks a signal as a primary output.
func (n *Netlist) Output(name string, s Sig) {
	n.Outputs = append(n.Outputs, s)
	if name != "" {
		n.OutName[name] = s
	}
}

// OutputBus marks a bus of signals as outputs name[0..len).
func (n *Netlist) OutputBus(name string, bus []Sig) {
	for i, s := range bus {
		n.Output(fmt.Sprintf("%s[%d]", name, i), s)
	}
}

// Const returns a constant signal.
func (n *Netlist) Const(v bool) Sig {
	if v {
		return n.add(Gate{Kind: Const1})
	}
	return n.add(Gate{Kind: Const0})
}

// Not returns !a.
func (n *Netlist) Not(a Sig) Sig { return n.add(Gate{Kind: Inv, In: [3]Sig{a}}) }

// Nand returns !(a&b).
func (n *Netlist) Nand(a, b Sig) Sig { return n.add(Gate{Kind: Nand2, In: [3]Sig{a, b}}) }

// Nand3g returns !(a&b&c).
func (n *Netlist) Nand3g(a, b, c Sig) Sig { return n.add(Gate{Kind: Nand3, In: [3]Sig{a, b, c}}) }

// Nor returns !(a|b).
func (n *Netlist) Nor(a, b Sig) Sig { return n.add(Gate{Kind: Nor2, In: [3]Sig{a, b}}) }

// Nor3g returns !(a|b|c).
func (n *Netlist) Nor3g(a, b, c Sig) Sig { return n.add(Gate{Kind: Nor3, In: [3]Sig{a, b, c}}) }

// And returns a&b (NAND + INV).
func (n *Netlist) And(a, b Sig) Sig { return n.Not(n.Nand(a, b)) }

// Or returns a|b.
func (n *Netlist) Or(a, b Sig) Sig { return n.Not(n.Nor(a, b)) }

// Xor returns a^b using the 4-NAND construction.
func (n *Netlist) Xor(a, b Sig) Sig {
	m := n.Nand(a, b)
	return n.Nand(n.Nand(a, m), n.Nand(b, m))
}

// Xnor returns !(a^b).
func (n *Netlist) Xnor(a, b Sig) Sig { return n.Not(n.Xor(a, b)) }

// Mux returns sel ? b : a (3 NAND + INV).
func (n *Netlist) Mux(sel, a, b Sig) Sig {
	ns := n.Not(sel)
	return n.Nand(n.Nand(a, ns), n.Nand(b, sel))
}

// MuxBus muxes two equal-width buses.
func (n *Netlist) MuxBus(sel Sig, a, b []Sig) []Sig {
	if len(a) != len(b) {
		panic("logic: MuxBus width mismatch")
	}
	out := make([]Sig, len(a))
	for i := range a {
		out[i] = n.Mux(sel, a[i], b[i])
	}
	return out
}

// ReduceAnd computes the AND of all signals with a NAND/NOR tree.
func (n *Netlist) ReduceAnd(sigs []Sig) Sig {
	switch len(sigs) {
	case 0:
		return n.Const(true)
	case 1:
		return sigs[0]
	}
	// Pair up with balanced 2/3-input gates.
	var next []Sig
	i := 0
	for ; i+3 <= len(sigs); i += 3 {
		next = append(next, n.Not(n.Nand3g(sigs[i], sigs[i+1], sigs[i+2])))
	}
	for ; i+2 <= len(sigs); i += 2 {
		next = append(next, n.And(sigs[i], sigs[i+1]))
	}
	if i < len(sigs) {
		next = append(next, sigs[i])
	}
	return n.ReduceAnd(next)
}

// ReduceOr computes the OR of all signals.
func (n *Netlist) ReduceOr(sigs []Sig) Sig {
	switch len(sigs) {
	case 0:
		return n.Const(false)
	case 1:
		return sigs[0]
	}
	var next []Sig
	i := 0
	for ; i+3 <= len(sigs); i += 3 {
		next = append(next, n.Not(n.Nor3g(sigs[i], sigs[i+1], sigs[i+2])))
	}
	for ; i+2 <= len(sigs); i += 2 {
		next = append(next, n.Or(sigs[i], sigs[i+1]))
	}
	if i < len(sigs) {
		next = append(next, sigs[i])
	}
	return n.ReduceOr(next)
}

// Eval computes all gate values for the given input assignment (indexed
// like n.Inputs) and returns the full value table.
func (n *Netlist) Eval(inputs []bool) []bool {
	if len(inputs) != len(n.Inputs) {
		panic(fmt.Sprintf("logic: %s wants %d inputs, got %d", n.Name, len(n.Inputs), len(inputs)))
	}
	vals := make([]bool, len(n.Gates))
	inIdx := 0
	for i, g := range n.Gates {
		switch g.Kind {
		case Input:
			vals[i] = inputs[inIdx]
			inIdx++
		case Const0:
			vals[i] = false
		case Const1:
			vals[i] = true
		case Inv:
			vals[i] = !vals[g.In[0]]
		case Nand2:
			vals[i] = !(vals[g.In[0]] && vals[g.In[1]])
		case Nand3:
			vals[i] = !(vals[g.In[0]] && vals[g.In[1]] && vals[g.In[2]])
		case Nor2:
			vals[i] = !(vals[g.In[0]] || vals[g.In[1]])
		case Nor3:
			vals[i] = !(vals[g.In[0]] || vals[g.In[1]] || vals[g.In[2]])
		}
	}
	return vals
}

// Fanouts returns, for each gate, the list of gates it feeds.
func (n *Netlist) Fanouts() [][]int32 {
	fo := make([][]int32, len(n.Gates))
	for i, g := range n.Gates {
		for k := 0; k < g.Kind.Arity(); k++ {
			src := g.In[k]
			fo[src] = append(fo[src], int32(i))
		}
	}
	return fo
}

// Log2Ceil returns ceil(log2(v)) for v >= 1.
func Log2Ceil(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}
