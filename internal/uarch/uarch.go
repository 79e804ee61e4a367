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

// portSched tracks per-cycle usage of an execution port class.
type portSched struct {
	width int
	used  []uint16
	tag   []uint64
	mask  uint64
}

func newPortSched(width int) *portSched {
	const window = 1 << 14
	return &portSched{width: width, used: make([]uint16, window), tag: make([]uint64, window), mask: window - 1}
}

// alloc finds the earliest cycle >= c with a free port and claims it.
func (p *portSched) alloc(c uint64) uint64 {
	for {
		idx := c & p.mask
		if p.tag[idx] != c {
			p.tag[idx] = c
			p.used[idx] = 0
		}
		if int(p.used[idx]) < p.width {
			p.used[idx]++
			return c
		}
		c++
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

func newPredictor(cfg Config) *predictor {
	return &predictor{
		pht:     make([]uint8, 1<<cfg.PredBits),
		phtMask: 1<<cfg.PredBits - 1,
		btbTag:  make([]uint32, 1<<cfg.BTBBits),
		btbTgt:  make([]uint32, 1<<cfg.BTBBits),
		btbMask: 1<<cfg.BTBBits - 1,
		ras:     make([]uint32, cfg.RAS),
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

// dcache is a direct-mapped data cache.
type dcache struct {
	tags  []uint32
	valid []bool
	shift uint
	mask  uint32
}

func newDcache(cfg Config) *dcache {
	sets := cfg.CacheKB * 1024 / cfg.LineBytes
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &dcache{
		tags:  make([]uint32, sets),
		valid: make([]bool, sets),
		shift: shift,
		mask:  uint32(sets - 1),
	}
}

// access returns true on hit and allocates the line.
func (c *dcache) access(addr uint32) bool {
	line := addr >> c.shift
	set := line & c.mask
	hit := c.valid[set] && c.tags[set] == line
	c.valid[set] = true
	c.tags[set] = line
	return hit
}

// Run simulates the recorded stream on the configured core and returns
// statistics.
func Run(rec *Recorded, cfg Config) Stats {
	var st Stats
	pred := newPredictor(cfg)
	cache := newDcache(cfg)

	var icache *dcache
	if cfg.ICacheKB > 0 {
		iCfg := cfg
		iCfg.CacheKB = cfg.ICacheKB
		icache = newDcache(iCfg)
	}

	aluPorts := newPortSched(max(1, cfg.BackWidth-2))
	memPorts := newPortSched(1)
	brPorts := newPortSched(1)

	retireHist := newRing(cfg.ROB) // retire time per instr, ROB lookback
	issueHist := newRing(cfg.IQ)   // issue time per instr, IQ lookback
	memHist := newRing(cfg.LSQ)    // retire time per mem op, LSQ lookback

	// Register scoreboard: cycle each architectural register's value is
	// available for bypass.
	var regReady [32]uint64

	// Fetch state.
	var cycle uint64 = 1 // current fetch cycle
	slots := cfg.FrontWidth
	var redirect uint64 // earliest fetch cycle after a mispredict

	// Retire state.
	var lastRetire uint64
	retireSlots := cfg.FrontWidth
	var retireCycle uint64
	// One iterative divider per ALU pipe (AnyCore's complex pipes).
	divFree := make([]uint64, max(1, cfg.BackWidth-2))
	var takenBubble uint64 // fetch bubble after a taken branch

	var i uint64 // dynamic instruction index
	var memIdx uint64

	for _, s := range rec.idx {
		tr := &rec.static[s]
		in := tr.Inst
		cls := in.Op.Class()
		// --- Fetch ---
		fetch := cycle
		if takenBubble > 0 {
			cycle += takenBubble
			fetch = cycle
			slots = cfg.FrontWidth
			takenBubble = 0
		}
		if redirect > fetch {
			fetch = redirect
			cycle = redirect
			slots = cfg.FrontWidth
		}
		// ROB occupancy: instr i needs instr i-ROB retired.
		if i >= uint64(cfg.ROB) {
			if r := retireHist.at(i - uint64(cfg.ROB)); r+1 > fetch {
				fetch = r + 1
				cycle = fetch
				slots = cfg.FrontWidth
			}
		}
		if slots == 0 {
			cycle++
			fetch = cycle
			if fetch < redirect {
				fetch = redirect
				cycle = redirect
			}
			slots = cfg.FrontWidth
		}
		if slots == cfg.FrontWidth {
			// Fetch is served from aligned 8-instruction blocks (icache
			// rows): entering mid-block (branch target) yields only the
			// remaining instructions of the row this cycle.
			if rem := 8 - int(tr.PC/4)%8; rem < slots {
				slots = rem
			}
		}
		// Instruction-cache miss: the fetch group stalls for the miss
		// latency (modeled as a front-end bubble).
		if icache != nil && !icache.access(tr.PC) {
			st.IFMisses++
			cycle += uint64(cfg.MissLat)
			fetch = cycle
			slots = cfg.FrontWidth
			if rem := 8 - int(tr.PC/4)%8; rem < slots {
				slots = rem
			}
		}
		slots--
		// Taken control flow ends the fetch group and costs a fetch
		// redirect bubble even when predicted (BTB-steered refetch).
		if cls == isa.ClassBranch && tr.Taken {
			slots = 0
			takenBubble = 1
		}

		// --- Dispatch ---
		disp := fetch + uint64(cfg.FrontStages)
		if i >= uint64(cfg.IQ) {
			if is := issueHist.at(i - uint64(cfg.IQ)); is+1 > disp {
				disp = is + 1
			}
		}
		isMem := cls == isa.ClassLoad || cls == isa.ClassStore
		if isMem && memIdx >= uint64(cfg.LSQ) {
			if r := memHist.at(memIdx - uint64(cfg.LSQ)); r+1 > disp {
				disp = r + 1
			}
		}

		// --- Operand readiness (full bypass + wakeup-loop penalty) ---
		ready := disp + 1
		if s := regReady[in.Rs1]; in.Rs1 != 0 && s > ready {
			ready = s
		}
		if in.Op.UsesRs2() && in.Rs2 != 0 {
			if s := regReady[in.Rs2]; s > ready {
				ready = s
			}
		}

		// --- Issue (port arbitration) ---
		var issue uint64
		lat := uint64(1 + cfg.ExecStages)
		switch cls {
		case isa.ClassMul:
			issue = aluPorts.alloc(ready)
			lat = uint64(cfg.MulLat + cfg.ExecStages)
		case isa.ClassDiv:
			// Pick the earliest-free divider (one per ALU pipe).
			dv := 0
			for k := range divFree {
				if divFree[k] < divFree[dv] {
					dv = k
				}
			}
			want := ready
			if divFree[dv] > want {
				want = divFree[dv]
			}
			issue = aluPorts.alloc(want)
			lat = uint64(cfg.DivLat + cfg.ExecStages)
			divFree[dv] = issue + lat
			// The iterative divider occupies its execution pipe for the
			// whole operation (DesignWare stallable divider).
			for c := issue + 1; c < issue+lat; c++ {
				aluPorts.alloc(c)
			}
		case isa.ClassLoad:
			issue = memPorts.alloc(ready)
			st.Loads++
			if cache.access(rec.addr[memIdx]) {
				lat = uint64(1 + cfg.HitLat + cfg.ExecStages)
			} else {
				st.LoadMisses++
				lat = uint64(1 + cfg.MissLat + cfg.ExecStages)
			}
		case isa.ClassStore:
			issue = memPorts.alloc(ready)
			cache.access(rec.addr[memIdx])
		case isa.ClassBranch:
			issue = brPorts.alloc(ready)
		default:
			issue = aluPorts.alloc(ready)
		}
		done := issue + lat

		// Writer wakes consumers IssueStages later than ideal.
		if in.Rd != 0 {
			regReady[in.Rd] = done + uint64(cfg.IssueStages)
		}

		// --- Branch resolution ---
		if cls == isa.ClassBranch {
			if in.Op.IsCond() {
				st.CondBr++
			}
			if !pred.predict(tr) {
				st.Mispredicts++
				if done+1 > redirect {
					redirect = done + 1
				}
			}
		}

		// --- Retire (in order, FrontWidth per cycle) ---
		ret := done + 1
		if ret <= lastRetire {
			ret = lastRetire
		}
		if ret != retireCycle {
			retireCycle = ret
			retireSlots = cfg.FrontWidth
		}
		if retireSlots == 0 {
			ret++
			retireCycle = ret
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
	st.Instrs = i
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
	return st
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
