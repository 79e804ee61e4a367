package uarch

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Config parameterizes the core. The paper's baseline is a 9-stage,
// front-end width 1, 3-pipe out-of-order core.
type Config struct {
	// FrontWidth is the fetch/decode/dispatch/retire width.
	FrontWidth int
	// BackWidth is the total number of back-end execution pipes: one
	// memory pipe, one control pipe, and BackWidth-2 ALU pipes (the
	// paper's width experiment varies only the ALU pipes).
	BackWidth int

	// Depth mapping for the pipeline-depth experiment. FrontStages is
	// the fetch-to-dispatch latency (baseline 4: Fetch Decode Rename
	// Dispatch); IssueStages adds wakeup/select loop cycles (loss of
	// back-to-back issue); ExecStages adds bypass/execute latency.
	FrontStages int
	IssueStages int
	ExecStages  int

	// Window sizes.
	ROB, IQ, LSQ int

	// Branch prediction.
	PredBits int // gshare PHT size (2^PredBits counters)
	BTBBits  int // BTB size (2^BTBBits entries)
	RAS      int // return-address stack depth

	// Execution latencies.
	MulLat, DivLat int

	// Data cache (direct-mapped, write-allocate).
	CacheKB   int
	LineBytes int
	HitLat    int
	MissLat   int
	// Instruction cache (0 = perfect). Misses stall the fetch group.
	ICacheKB int
}

// DefaultConfig returns the 9-stage baseline core.
func DefaultConfig() Config {
	return Config{
		FrontWidth:  1,
		BackWidth:   3,
		FrontStages: 4,
		IssueStages: 0,
		ExecStages:  0,
		ROB:         64,
		IQ:          16,
		LSQ:         24,
		PredBits:    12,
		BTBBits:     9,
		RAS:         8,
		MulLat:      3,
		DivLat:      12,
		CacheKB:     8,
		LineBytes:   16,
		HitLat:      2,
		MissLat:     20,
	}
}

// Stats summarizes one simulation.
type Stats struct {
	Instrs      uint64
	Cycles      uint64
	IPC         float64
	CondBr      uint64
	Mispredicts uint64
	MPKI        float64 // mispredicts per kilo-instruction
	Loads       uint64
	LoadMisses  uint64
	MissRate    float64
	IFMisses    uint64 // instruction-cache misses (0 with a perfect icache)
}

// Recorded is a dynamic instruction stream in compact form: each
// distinct record (MemAddr zeroed) is stored once, the stream is one
// uint16 index into those records per instruction, and loads and stores
// carry their effective addresses in program order. Build one with
// Record or Append; once built it is read-only, so concurrent Runs may
// share it.
type Recorded struct {
	static []isa.Trace
	idx    []uint16
	addr   []uint32
	slots  map[uint32][]uint16 // static indexes per PC, for Append
}

// Append adds one dynamic instruction to the end of the stream. It fails
// when the stream would need more than 65,536 distinct records.
func (r *Recorded) Append(tr isa.Trace) error {
	addr := tr.MemAddr
	tr.MemAddr = 0
	slot := -1
	for _, s := range r.slots[tr.PC] {
		if r.static[s] == tr {
			slot = int(s)
			break
		}
	}
	if slot < 0 {
		if len(r.static) > math.MaxUint16 {
			return fmt.Errorf("uarch: trace has more than %d distinct records", math.MaxUint16+1)
		}
		if r.slots == nil {
			r.slots = make(map[uint32][]uint16)
		}
		slot = len(r.static)
		r.static = append(r.static, tr)
		r.slots[tr.PC] = append(r.slots[tr.PC], uint16(slot))
	}
	r.idx = append(r.idx, uint16(slot))
	if cls := tr.Inst.Op.Class(); cls == isa.ClassLoad || cls == isa.ClassStore {
		r.addr = append(r.addr, addr)
	}
	return nil
}

// Record steps m until it halts or has run limit instructions and returns
// the stream it executed.
func Record(m *isa.Machine, limit uint64) (*Recorded, error) {
	r := &Recorded{}
	for n := uint64(0); n < limit && !m.Halted; n++ {
		tr, err := m.Step()
		if err != nil {
			return nil, err
		}
		if err := r.Append(tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Geometry is the part of a Config that decides the predictor and cache
// outcomes of a stream: which branches mispredict, which loads miss and
// which fetches miss the instruction cache. None of it depends on
// timing, so configurations that share a Geometry share one Lowered.
type Geometry struct {
	PredBits, BTBBits, RAS       int
	CacheKB, LineBytes, ICacheKB int
}

// Geometry returns c's predictor and cache geometry.
func (c Config) Geometry() Geometry {
	return Geometry{
		PredBits: c.PredBits, BTBBits: c.BTBBits, RAS: c.RAS,
		CacheKB: c.CacheKB, LineBytes: c.LineBytes, ICacheKB: c.ICacheKB,
	}
}

// op is one static record decoded for the timing loop.
type op struct {
	cls          isa.Class
	rd, rs1, rs2 uint8 // rs2 is 0 when the opcode reads no second register
	rem          uint8 // instructions left in the record's 8-instruction fetch row
	taken        bool  // taken control flow: ends the fetch group
}

// Lowered is a Recorded stream with its predictor and cache outcomes
// resolved for one Geometry: a decode table per static record and one
// outcome bit per dynamic instruction. Build one with Lower; it is
// read-only, so concurrent Replays may share it.
type Lowered struct {
	geom Geometry
	ops  []op
	idx  []uint16
	// miss has bit i set when dynamic instruction i is a mispredicted
	// branch or a load that missed the data cache; ifMiss has it set when
	// instruction i's fetch missed the instruction cache (nil with a
	// perfect icache).
	miss, ifMiss []uint64
	// counts holds the outcome totals: every Stats field but Cycles, IPC
	// and the ratios.
	counts Stats
}

// Lower decodes rec's records and runs its branches, loads, stores and
// fetches through the predictor and caches of geometry g, in program
// order. It reads rec and never changes it.
func Lower(rec *Recorded, g Geometry) *Lowered {
	l := &Lowered{
		geom: g,
		ops:  make([]op, len(rec.static)),
		idx:  rec.idx,
		miss: make([]uint64, (len(rec.idx)+63)/64),
	}
	for k := range rec.static {
		tr := &rec.static[k]
		in := tr.Inst
		o := op{cls: in.Op.Class(), rd: in.Rd, rs1: in.Rs1, rem: uint8(8 - tr.PC/4%8)}
		if in.Op.UsesRs2() {
			o.rs2 = in.Rs2
		}
		o.taken = o.cls == isa.ClassBranch && tr.Taken
		l.ops[k] = o
	}
	pred := newPredictor(g)
	dcache := newCache(g.CacheKB, g.LineBytes)
	var icache *cache
	if g.ICacheKB > 0 {
		icache = newCache(g.ICacheKB, g.LineBytes)
		l.ifMiss = make([]uint64, len(l.miss))
	}
	st := &l.counts
	var memIdx int
	for i, s := range rec.idx {
		tr := &rec.static[s]
		bit := uint64(1) << (i & 63)
		if icache != nil && !icache.access(tr.PC) {
			st.IFMisses++
			l.ifMiss[i>>6] |= bit
		}
		switch l.ops[s].cls {
		case isa.ClassBranch:
			if tr.Inst.Op.IsCond() {
				st.CondBr++
			}
			if !pred.predict(tr) {
				st.Mispredicts++
				l.miss[i>>6] |= bit
			}
		case isa.ClassLoad:
			st.Loads++
			if !dcache.access(rec.addr[memIdx]) {
				st.LoadMisses++
				l.miss[i>>6] |= bit
			}
			memIdx++
		case isa.ClassStore:
			dcache.access(rec.addr[memIdx])
			memIdx++
		}
	}
	st.Instrs = uint64(len(rec.idx))
	return l
}

// ring holds per-index timestamps for window-occupancy constraints.
// Capacity rounds the window up to a power of two so the hot-path index
// is a mask instead of a division; a slot stays live for at least
// capacity pushes, which covers every lookback of window size or less.
type ring struct {
	buf  []uint64
	mask uint64
}

func newRing(n int) *ring {
	cap := 1
	for cap < n {
		cap <<= 1
	}
	return &ring{buf: make([]uint64, cap), mask: uint64(cap - 1)}
}

// push records index i's timestamp.
func (r *ring) push(i uint64, v uint64) { r.buf[i&r.mask] = v }

// at returns the timestamp recorded for index i (i must be within the
// last capacity pushes; an index never pushed reads 0).
func (r *ring) at(i uint64) uint64 { return r.buf[i&r.mask] }

// portSched tracks per-cycle usage of an execution port class in a ring
// of cycles. Each slot packs cycle<<16 | ports used in that cycle.
//
// A slot whose cycle is below the current instruction's fetch cycle is
// dead: fetch never decreases and every request is at least fetch +
// FrontStages + 1, so no later request can name it. A probe that lands
// on a live slot of another cycle doubles the ring instead of
// overwriting it, so the schedule is exact however far ahead requests
// reach.
type portSched struct {
	width uint64
	slot  []uint64
	mask  uint64
	full  bool   // some probe found its cycle full
	peak  uint64 // most ports used in one cycle
}

// portWindow is a port ring's starting size in cycles.
const portWindow = 256

// newPortSched returns a port class of width ports. The width clamps at
// 65,535, the most claims one slot can count; a cycle's claims stay far
// below that unless the ROB holds tens of thousands of entries.
func newPortSched(width int) *portSched {
	return &portSched{width: uint64(min(width, 1<<16-1)), slot: make([]uint64, portWindow), mask: portWindow - 1}
}

// occupy claims one port in each cycle of [from, to), each claim as
// alloc makes it.
func (p *portSched) occupy(from, to, live uint64) {
	for c := from; c < to; c++ {
		if !p.claim(c, live) {
			p.alloc(c, live)
		}
	}
}

// claim claims a port in cycle c if c's slot is dead or holds c with a
// port free. A failed claim changes nothing. It is alloc's fast path,
// small enough to inline where alloc is not.
func (p *portSched) claim(c, live uint64) bool {
	s := &p.slot[c&p.mask]
	if *s < live<<16 {
		*s = c << 16 // the slot of a dead cycle
	}
	n := *s - c<<16 // c's claims so far, or huge when another cycle holds s
	if n >= p.width {
		return false
	}
	*s++
	p.peak = max(p.peak, n+1)
	return true
}

// alloc finds the earliest cycle >= c with a free port and claims it;
// live is the current instruction's fetch cycle, and c > live.
func (p *portSched) alloc(c, live uint64) uint64 {
	for !p.claim(c, live) {
		if p.slot[c&p.mask]>>16 == c {
			p.full = true // cycle c is full
			c++
		} else {
			p.grow(live) // another live cycle holds c's slot
		}
	}
	return c
}

// grow doubles the ring, keeping the slots of cycles >= live. Two live
// cycles never share a slot of the doubled ring, because they did not
// share one of the old ring.
func (p *portSched) grow(live uint64) {
	old := p.slot
	p.slot = make([]uint64, 2*len(old))
	p.mask = uint64(len(p.slot) - 1)
	for _, s := range old {
		if t := s >> 16; t >= live {
			p.slot[t&p.mask] = s
		}
	}
}

// predictor is a gshare + BTB + RAS front-end predictor.
type predictor struct {
	pht     []uint8
	phtMask uint32
	ghr     uint32
	btbTag  []uint32
	btbTgt  []uint32
	btbMask uint32
	ras     []uint32
	rasTop  int
}

func newPredictor(g Geometry) *predictor {
	return &predictor{
		pht:     make([]uint8, 1<<g.PredBits),
		phtMask: 1<<g.PredBits - 1,
		btbTag:  make([]uint32, 1<<g.BTBBits),
		btbTgt:  make([]uint32, 1<<g.BTBBits),
		btbMask: 1<<g.BTBBits - 1,
		ras:     make([]uint32, g.RAS),
	}
}

// predict returns whether the fetch unit would have followed the
// correct path for this branch, and trains the structures.
func (p *predictor) predict(tr *isa.Trace) bool {
	op := tr.Inst.Op
	pc := tr.PC
	correct := true
	switch {
	case op.IsCond():
		idx := (pc>>2 ^ p.ghr) & p.phtMask
		ctr := p.pht[idx]
		predTaken := ctr >= 2
		if predTaken != tr.Taken {
			correct = false
		}
		if tr.Taken && ctr < 3 {
			p.pht[idx] = ctr + 1
		} else if !tr.Taken && ctr > 0 {
			p.pht[idx] = ctr - 1
		}
		p.ghr = p.ghr<<1 | b2u(tr.Taken)
		if predTaken && correct {
			// Direction right; target must come from the BTB.
			correct = p.btbLookup(pc, tr.Target)
		}
		p.btbInsert(pc, tr.Target)
	case op == isa.JAL:
		correct = p.btbLookup(pc, tr.Target)
		p.btbInsert(pc, tr.Target)
		if tr.Inst.Rd == 1 && len(p.ras) > 0 {
			p.ras[p.rasTop%len(p.ras)] = pc + 4
			p.rasTop++
		}
	case op == isa.JALR:
		if tr.Inst.Rs1 == 1 && len(p.ras) > 0 && p.rasTop > 0 {
			// Return: pop the RAS.
			p.rasTop--
			correct = p.ras[p.rasTop%len(p.ras)] == tr.Target
		} else {
			correct = p.btbLookup(pc, tr.Target)
			p.btbInsert(pc, tr.Target)
		}
	}
	return correct
}

func (p *predictor) btbLookup(pc, target uint32) bool {
	idx := pc >> 2 & p.btbMask
	return p.btbTag[idx] == pc && p.btbTgt[idx] == target
}

func (p *predictor) btbInsert(pc, target uint32) {
	idx := pc >> 2 & p.btbMask
	p.btbTag[idx] = pc
	p.btbTgt[idx] = target
}

// cache is a direct-mapped cache.
type cache struct {
	tags  []uint32
	valid []bool
	shift uint
	mask  uint32
}

func newCache(kb, lineBytes int) *cache {
	sets := kb * 1024 / lineBytes
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &cache{
		tags:  make([]uint32, sets),
		valid: make([]bool, sets),
		shift: shift,
		mask:  uint32(sets - 1),
	}
}

// access returns true on hit and allocates the line.
func (c *cache) access(addr uint32) bool {
	line := addr >> c.shift
	set := line & c.mask
	hit := c.valid[set] && c.tags[set] == line
	c.valid[set] = true
	c.tags[set] = line
	return hit
}

// Run simulates the recorded stream on the configured core and returns
// statistics: Lower under cfg's Geometry, then Replay.
func Run(rec *Recorded, cfg Config) Stats {
	st, _ := Replay(Lower(rec, cfg.Geometry()), cfg)
	return st
}

// Replay times a lowered stream on the configured core; l must have been
// lowered for cfg.Geometry().
//
// BackWidth enters the timing only as the ALU port count and the
// divider count, max(1, BackWidth-2) each. When no ALU probe found its
// cycle full and no divide waited for a divider, every configuration
// equal to cfg but for a BackWidth >= minBack has these same Stats,
// where minBack-2 is the larger of the most ALU ports used in one cycle
// and one more than the most dividers busy at a divide. Otherwise
// minBack is 0.
func Replay(l *Lowered, cfg Config) (st Stats, minBack int) {
	if g := cfg.Geometry(); g != l.geom {
		panic(fmt.Sprintf("uarch: replaying a stream lowered for %+v under %+v", l.geom, g))
	}
	st = l.counts
	width := max(1, cfg.BackWidth-2)
	aluPorts := newPortSched(width)
	memPorts := newPortSched(1)
	brPorts := newPortSched(1)

	// Issue port and latency per instruction class; a load that misses
	// takes loadMissLat instead.
	ports := [...]*portSched{
		isa.ClassALU: aluPorts, isa.ClassMul: aluPorts, isa.ClassDiv: aluPorts,
		isa.ClassLoad: memPorts, isa.ClassStore: memPorts,
		isa.ClassBranch: brPorts, isa.ClassSys: aluPorts,
	}
	exec := uint64(cfg.ExecStages)
	lats := [...]uint64{
		isa.ClassALU: 1 + exec, isa.ClassMul: uint64(cfg.MulLat) + exec, isa.ClassDiv: uint64(cfg.DivLat) + exec,
		isa.ClassLoad: uint64(1+cfg.HitLat) + exec, isa.ClassStore: 1 + exec,
		isa.ClassBranch: 1 + exec, isa.ClassSys: 1 + exec,
	}
	loadMissLat := uint64(1+cfg.MissLat) + exec

	retireHist := newRing(cfg.ROB) // retire time per instr, ROB lookback
	issueHist := newRing(cfg.IQ)   // issue time per instr, IQ lookback
	memHist := newRing(cfg.LSQ)    // retire time per mem op, LSQ lookback

	// Register scoreboard: cycle each architectural register's value is
	// available for bypass.
	var regReady [32]uint64

	// Fetch state.
	var fetch uint64 = 1 // current fetch cycle
	slots := cfg.FrontWidth
	var redirect uint64 // earliest fetch cycle after a mispredict

	// Retire state.
	var lastRetire uint64
	retireSlots := cfg.FrontWidth
	// One iterative divider per ALU pipe (AnyCore's complex pipes).
	divFree := make([]uint64, width)
	divWaited := false
	var divPeak uint64 // one more than the most dividers busy at a divide

	var i uint64 // dynamic instruction index
	var memIdx uint64

	for _, s := range l.idx {
		o := &l.ops[s]
		outcome := l.miss[i>>6]>>(i&63)&1 != 0
		// --- Fetch ---
		if redirect > fetch {
			fetch = redirect
			slots = cfg.FrontWidth
		}
		// ROB occupancy: instr i needs instr i-ROB retired.
		if i >= uint64(cfg.ROB) {
			if r := retireHist.at(i - uint64(cfg.ROB)); r+1 > fetch {
				fetch = r + 1
				slots = cfg.FrontWidth
			}
		}
		if slots == 0 {
			fetch++
			slots = cfg.FrontWidth
		}
		if slots == cfg.FrontWidth {
			// Fetch is served from aligned 8-instruction blocks (icache
			// rows): entering mid-block (branch target) yields only the
			// remaining instructions of the row this cycle.
			slots = min(slots, int(o.rem))
		}
		// Instruction-cache miss: the fetch group stalls for the miss
		// latency (modeled as a front-end bubble).
		if l.ifMiss != nil && l.ifMiss[i>>6]>>(i&63)&1 != 0 {
			fetch += uint64(cfg.MissLat)
			slots = min(cfg.FrontWidth, int(o.rem))
		}
		slots--
		// Taken control flow ends the fetch group even when predicted
		// (BTB-steered refetch): with no slots left, the next
		// instruction fetches a cycle later at the earliest.
		if o.taken {
			slots = 0
		}

		// --- Dispatch ---
		disp := fetch + uint64(cfg.FrontStages)
		if i >= uint64(cfg.IQ) {
			if is := issueHist.at(i - uint64(cfg.IQ)); is+1 > disp {
				disp = is + 1
			}
		}
		isMem := o.cls == isa.ClassLoad || o.cls == isa.ClassStore
		if isMem && memIdx >= uint64(cfg.LSQ) {
			if r := memHist.at(memIdx - uint64(cfg.LSQ)); r+1 > disp {
				disp = r + 1
			}
		}

		// --- Operand readiness (full bypass + wakeup-loop penalty) ---
		// Register 0 is never written, so it is never later than disp+1.
		ready := max(disp+1, regReady[o.rs1], regReady[o.rs2])

		// --- Issue (port arbitration) ---
		want := ready
		var dv int
		if o.cls == isa.ClassDiv {
			// Pick the earliest-free divider (one per ALU pipe).
			var busy uint64
			for k, f := range divFree {
				if f < divFree[dv] {
					dv = k
				}
				if f > ready {
					busy++
				}
			}
			divPeak = max(divPeak, busy+1)
			if divFree[dv] > want {
				want = divFree[dv]
				divWaited = true
			}
		}
		p := ports[o.cls]
		issue := want
		if !p.claim(want, fetch) {
			issue = p.alloc(want, fetch)
		}
		lat := lats[o.cls]
		if o.cls == isa.ClassLoad && outcome {
			lat = loadMissLat
		}
		if o.cls == isa.ClassDiv {
			divFree[dv] = issue + lat
			// The iterative divider occupies its execution pipe for the
			// whole operation (DesignWare stallable divider).
			aluPorts.occupy(issue+1, issue+lat, fetch)
		}
		done := issue + lat

		// Writer wakes consumers IssueStages later than ideal.
		if o.rd != 0 {
			regReady[o.rd] = done + uint64(cfg.IssueStages)
		}

		// --- Branch resolution ---
		if o.cls == isa.ClassBranch && outcome && done+1 > redirect {
			redirect = done + 1
		}

		// --- Retire (in order, FrontWidth per cycle) ---
		ret := done + 1
		if ret > lastRetire {
			retireSlots = cfg.FrontWidth
		} else {
			ret = lastRetire
		}
		if retireSlots == 0 {
			ret++
			retireSlots = cfg.FrontWidth
		}
		retireSlots--
		lastRetire = ret

		retireHist.push(i, ret)
		issueHist.push(i, issue)
		if isMem {
			memHist.push(memIdx, ret)
			memIdx++
		}
		i++
	}
	st.Cycles = lastRetire
	if st.Cycles > 0 {
		st.IPC = float64(st.Instrs) / float64(st.Cycles)
	}
	if st.Instrs > 0 {
		st.MPKI = 1000 * float64(st.Mispredicts) / float64(st.Instrs)
	}
	if st.Loads > 0 {
		st.MissRate = float64(st.LoadMisses) / float64(st.Loads)
	}
	if !aluPorts.full && !divWaited {
		minBack = int(max(1, aluPorts.peak, divPeak)) + 2
	}
	return st, minBack
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
