package uarch

import (
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// independentALU builds n ADDs with no dependencies (different regs).
func independentALU(n int) []isa.Trace {
	trs := make([]isa.Trace, n)
	for i := range trs {
		rd := uint8(5 + i%8)
		trs[i] = isa.Trace{PC: uint32(4 * i), Inst: isa.Inst{Op: isa.ADD, Rd: rd, Rs1: 0, Rs2: 0}}
	}
	return trs
}

// dependentChain builds n ADDs each consuming the previous result.
func dependentChain(n int) []isa.Trace {
	trs := make([]isa.Trace, n)
	for i := range trs {
		trs[i] = isa.Trace{PC: uint32(4 * i), Inst: isa.Inst{Op: isa.ADD, Rd: 5, Rs1: 5, Rs2: 5}}
	}
	return trs
}

func recordOf(trs []isa.Trace) *Recorded {
	var rec Recorded
	for _, tr := range trs {
		if err := rec.Append(tr); err != nil {
			panic(err)
		}
	}
	return &rec
}

func run(trs []isa.Trace, cfg Config) Stats { return Run(recordOf(trs), cfg) }

// record runs the named workload on the functional ISA, verifies its
// checksum and returns its recorded stream.
func record(t testing.TB, name string) *Recorded {
	t.Helper()
	w := workload.ByName(name)
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(m, w.MaxInstr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatalf("functional result corrupted by recording: %v", err)
	}
	return rec
}

func TestIPCBoundedByFrontWidth(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.FrontWidth = w
		cfg.BackWidth = 7
		st := run(independentALU(20000), cfg)
		if st.IPC > float64(w)+1e-9 {
			t.Errorf("width %d: IPC %.3f exceeds front width", w, st.IPC)
		}
		if st.IPC < 0.8*float64(w) {
			t.Errorf("width %d: IPC %.3f too low for independent ALU ops", w, st.IPC)
		}
	}
}

func TestDependentChainSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontWidth = 4
	cfg.BackWidth = 7
	st := run(dependentChain(20000), cfg)
	if st.IPC > 1.05 {
		t.Errorf("dependent chain IPC %.3f, want ~1", st.IPC)
	}
	// Wakeup-loop cuts (IssueStages) break back-to-back issue.
	cfg.IssueStages = 1
	st2 := run(dependentChain(20000), cfg)
	if st2.IPC > 0.55 {
		t.Errorf("issue-cut chain IPC %.3f, want ~0.5", st2.IPC)
	}
}

func TestALUPortContention(t *testing.T) {
	// With front width 4 but a single ALU pipe (BackWidth 3), IPC caps
	// near 1 on pure-ALU code; more pipes lift it.
	cfg := DefaultConfig()
	cfg.FrontWidth = 4
	cfg.BackWidth = 3
	narrow := run(independentALU(20000), cfg)
	cfg.BackWidth = 6
	wide := run(independentALU(20000), cfg)
	if narrow.IPC > 1.1 {
		t.Errorf("1 ALU pipe: IPC %.3f, want <=~1", narrow.IPC)
	}
	if wide.IPC < 2.5 {
		t.Errorf("4 ALU pipes: IPC %.3f, want ~3+", wide.IPC)
	}
}

func TestMispredictPenaltyGrowsWithDepth(t *testing.T) {
	// Alternating-history-free random-ish branches: taken when i has an
	// odd population count of a multiplicative hash (unlearnable for
	// gshare with this PC pattern).
	n := 30000
	trs := make([]isa.Trace, n)
	for i := range trs {
		h := uint32(i) * 2654435761
		taken := h>>13&1 == 1
		target := uint32(4*i + 4)
		trs[i] = isa.Trace{
			PC:     uint32(4 * i),
			Inst:   isa.Inst{Op: isa.BNE, Rs1: 5, Rs2: 6},
			Taken:  taken,
			Target: target,
		}
	}
	cfg := DefaultConfig()
	cfg.FrontWidth = 2
	cfg.BackWidth = 4
	shallow := run(trs, cfg)
	cfg.FrontStages = 10
	deep := run(trs, cfg)
	if shallow.Mispredicts == 0 {
		t.Fatal("expected mispredicts")
	}
	if deep.IPC >= shallow.IPC {
		t.Errorf("deeper front end should cost IPC: %.3f vs %.3f", deep.IPC, shallow.IPC)
	}
}

func TestPredictorLearnsLoops(t *testing.T) {
	// A loop branch taken 15 times then not taken, repeatedly: gshare
	// should learn most of it.
	var trs []isa.Trace
	for rep := 0; rep < 1000; rep++ {
		for k := 0; k < 16; k++ {
			trs = append(trs, isa.Trace{
				PC:     0x100,
				Inst:   isa.Inst{Op: isa.BNE, Rs1: 5, Rs2: 6},
				Taken:  k < 15,
				Target: map[bool]uint32{true: 0x80, false: 0x104}[k < 15],
			})
		}
	}
	st := run(trs, DefaultConfig())
	rate := float64(st.Mispredicts) / float64(st.CondBr)
	if rate > 0.15 {
		t.Errorf("loop mispredict rate %.3f, want < 0.15", rate)
	}
}

func TestCacheMissesCostCycles(t *testing.T) {
	n := 20000
	mk := func(stride uint32) []isa.Trace {
		trs := make([]isa.Trace, n)
		for i := range trs {
			trs[i] = isa.Trace{
				PC:      uint32(4 * i),
				Inst:    isa.Inst{Op: isa.LW, Rd: 5, Rs1: 0},
				MemAddr: uint32(i) * stride % (1 << 20),
			}
		}
		return trs
	}
	cfg := DefaultConfig()
	cfg.FrontWidth = 2
	hot := run(mk(4), cfg)     // fits in cache lines
	cold := run(mk(4096), cfg) // new line every access
	if cold.MissRate < 0.9 {
		t.Errorf("strided loads should miss: rate %.3f", cold.MissRate)
	}
	if hot.MissRate > 0.3 {
		t.Errorf("sequential loads should mostly hit: rate %.3f", hot.MissRate)
	}
	if cold.IPC >= hot.IPC {
		t.Errorf("misses should cost IPC: %.3f vs %.3f", cold.IPC, hot.IPC)
	}
}

func TestWorkloadIPCRange(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "dhrystone"} {
		cfg := DefaultConfig()
		cfg.FrontWidth = 2
		cfg.BackWidth = 4
		st := Run(record(t, name), cfg)
		t.Logf("%s: IPC %.3f, MPKI %.1f, miss rate %.3f (%d instrs)",
			name, st.IPC, st.MPKI, st.MissRate, st.Instrs)
		if st.IPC < 0.1 || st.IPC > 2.0 {
			t.Errorf("%s: IPC %.3f outside plausible range", name, st.IPC)
		}
	}
}

func TestMcfLowerIPCThanDhrystone(t *testing.T) {
	ipc := map[string]float64{}
	for _, name := range []string{"mcf", "dhrystone"} {
		cfg := DefaultConfig()
		cfg.FrontWidth = 2
		cfg.BackWidth = 4
		ipc[name] = Run(record(t, name), cfg).IPC
	}
	if ipc["mcf"] >= ipc["dhrystone"] {
		t.Errorf("pointer chasing should have lower IPC: mcf %.3f vs dhrystone %.3f",
			ipc["mcf"], ipc["dhrystone"])
	}
}

func TestRingAndPorts(t *testing.T) {
	r := newRing(4)
	for i := uint64(0); i < 10; i++ {
		r.push(i, i*10)
	}
	if got := r.at(9); got != 90 {
		t.Fatalf("ring at(9) = %d", got)
	}
	p := newPortSched(2)
	c1 := p.alloc(5, 1)
	c2 := p.alloc(5, 1)
	c3 := p.alloc(5, 1)
	if c1 != 5 || c2 != 5 || c3 != 6 {
		t.Fatalf("port alloc = %d %d %d, want 5 5 6", c1, c2, c3)
	}
	if !p.full || p.peak != 2 {
		t.Fatalf("full %v, peak %d; want true, 2", p.full, p.peak)
	}
	// Cycle 5+portWindow shares cycle 5's slot. While cycle 5 is live
	// the ring doubles instead of overwriting it; once fetch has passed
	// cycle 6, the slot is reused in place.
	far := uint64(5 + portWindow)
	if c := p.alloc(far, 2); c != far {
		t.Fatalf("alloc(%d) = %d", far, c)
	}
	if len(p.slot) != 2*portWindow {
		t.Fatalf("ring of %d slots after a live collision, want %d", len(p.slot), 2*portWindow)
	}
	if c := p.alloc(5, 2); c != 6 {
		t.Fatalf("cycle 5 forgot its 2 claims across the grow: alloc = %d", c)
	}
	if c := p.alloc(5+2*portWindow, 7); c != 5+2*portWindow || len(p.slot) != 2*portWindow {
		t.Fatalf("dead slot: alloc = %d, ring %d slots", c, len(p.slot))
	}
}

func TestROBStallLimitsInFlight(t *testing.T) {
	// One long-latency divide at the head plus many independent adds:
	// with a tiny ROB the adds cannot run ahead; a big ROB lets them.
	mk := func() []isa.Trace {
		trs := []isa.Trace{{PC: 0, Inst: isa.Inst{Op: isa.DIV, Rd: 9, Rs1: 5, Rs2: 6}}}
		for i := 0; i < 2000; i++ {
			trs = append(trs, isa.Trace{PC: uint32(4 + 4*i), Inst: isa.Inst{Op: isa.ADD, Rd: uint8(10 + i%8)}})
		}
		// Repeat the pattern so the window effects accumulate.
		out := append([]isa.Trace(nil), trs...)
		for r := 0; r < 10; r++ {
			out = append(out, trs...)
		}
		return out
	}
	small := DefaultConfig()
	small.FrontWidth, small.BackWidth = 4, 6
	small.ROB = 8
	big := small
	big.ROB = 256
	ipcSmall := run(mk(), small).IPC
	ipcBig := run(mk(), big).IPC
	if ipcBig <= ipcSmall*1.02 {
		t.Fatalf("larger ROB should help: %.3f vs %.3f", ipcSmall, ipcBig)
	}
}

func TestLSQStallsMemOps(t *testing.T) {
	mk := func() []isa.Trace {
		trs := make([]isa.Trace, 8000)
		for i := range trs {
			trs[i] = isa.Trace{
				PC:      uint32(4 * i),
				Inst:    isa.Inst{Op: isa.LW, Rd: uint8(5 + i%4)},
				MemAddr: uint32(i) * 4096, // all misses
			}
		}
		return trs
	}
	cfg := DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth = 4, 6
	cfg.LSQ = 2
	tight := run(mk(), cfg).IPC
	cfg.LSQ = 64
	loose := run(mk(), cfg).IPC
	if loose <= tight {
		t.Fatalf("larger LSQ should help on miss streams: %.3f vs %.3f", tight, loose)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	// call/return pairs: with a RAS the returns predict; without (RAS=0)
	// they fall back to the BTB, which thrashes when the same return
	// site returns to alternating callers.
	var trs []isa.Trace
	for i := 0; i < 4000; i++ {
		callPC := uint32(0x100 + 0x40*(i%2)) // two alternating call sites
		trs = append(trs,
			isa.Trace{PC: callPC, Inst: isa.Inst{Op: isa.JAL, Rd: 1}, Taken: true, Target: 0x1000},
			isa.Trace{PC: 0x1000, Inst: isa.Inst{Op: isa.JALR, Rd: 0, Rs1: 1}, Taken: true, Target: callPC + 4},
		)
	}
	with := DefaultConfig()
	with.FrontWidth = 2
	without := with
	without.RAS = 0
	mWith := run(trs, with)
	mWithout := run(trs, without)
	if mWith.Mispredicts >= mWithout.Mispredicts {
		t.Fatalf("RAS should reduce return mispredicts: %d vs %d", mWith.Mispredicts, mWithout.Mispredicts)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth = 3, 5
	var cycles [2]uint64
	for k := 0; k < 2; k++ {
		cycles[k] = Run(record(t, "parser"), cfg).Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("simulation not deterministic: %d vs %d", cycles[0], cycles[1])
	}
}

func TestIPCInvariantsProperty(t *testing.T) {
	// For random small configurations, IPC stays positive and never
	// exceeds the front width, and cycle counts are monotone with
	// front-stage depth.
	trs := independentALU(4000)
	for seed := 0; seed < 24; seed++ {
		cfg := DefaultConfig()
		cfg.FrontWidth = 1 + seed%4
		cfg.BackWidth = 3 + seed%5
		cfg.FrontStages = 2 + seed%7
		cfg.ROB = 16 << (seed % 3)
		st := run(trs, cfg)
		if st.IPC <= 0 || st.IPC > float64(cfg.FrontWidth)+1e-9 {
			t.Fatalf("seed %d: IPC %.3f out of bounds (fw=%d)", seed, st.IPC, cfg.FrontWidth)
		}
		deeper := cfg
		deeper.FrontStages += 6
		st2 := run(trs, deeper)
		if st2.Cycles < st.Cycles {
			t.Fatalf("seed %d: deeper front end finished sooner (%d vs %d)", seed, st2.Cycles, st.Cycles)
		}
	}
}

func TestStoresDontWriteRegisters(t *testing.T) {
	// A store must not wake consumers of its rs2 register.
	trs := []isa.Trace{
		{PC: 0, Inst: isa.Inst{Op: isa.ADD, Rd: 5}},
		{PC: 4, Inst: isa.Inst{Op: isa.SW, Rs1: 0, Rs2: 5}, MemAddr: 64},
		{PC: 8, Inst: isa.Inst{Op: isa.ADD, Rd: 6, Rs1: 5}},
	}
	st := run(trs, DefaultConfig())
	if st.Instrs != 3 || st.Cycles == 0 {
		t.Fatalf("bad run: %+v", st)
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	rec := record(t, "gzip")
	run := func(ikb int) Stats {
		cfg := DefaultConfig()
		cfg.FrontWidth, cfg.BackWidth = 2, 4
		cfg.ICacheKB = ikb
		return Run(rec, cfg)
	}
	perfect := run(0)
	real := run(4)
	if perfect.IFMisses != 0 {
		t.Fatal("perfect icache should not miss")
	}
	if real.IFMisses == 0 {
		t.Fatal("real icache should see cold misses")
	}
	if real.IPC > perfect.IPC {
		t.Fatalf("icache misses should not raise IPC: %.3f vs %.3f", real.IPC, perfect.IPC)
	}
	// Tiny loops fit: miss count stays far below instruction count.
	if float64(real.IFMisses) > 0.01*float64(real.Instrs) {
		t.Fatalf("icache thrashing on loop code: %d misses", real.IFMisses)
	}
}

func TestReplayAllocsIndependentOfLength(t *testing.T) {
	// gzip runs about 241k instructions and dhrystone about 540k: equal
	// allocation counts mean replay allocates nothing per instruction.
	cfg := DefaultConfig()
	allocs := map[string]float64{}
	for _, name := range []string{"gzip", "dhrystone"} {
		rec := record(t, name)
		allocs[name] = testing.AllocsPerRun(3, func() { Run(rec, cfg) })
	}
	if allocs["gzip"] != allocs["dhrystone"] {
		t.Fatalf("replay allocations grow with trace length: gzip %v, dhrystone %v",
			allocs["gzip"], allocs["dhrystone"])
	}
}

func TestConcurrentReplaysShareRecording(t *testing.T) {
	rec := record(t, "gzip")
	cfg := DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth = 2, 4
	want := Run(rec, cfg)
	var wg sync.WaitGroup
	got := make([]Stats, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Run(rec, cfg)
		}()
	}
	wg.Wait()
	for g, st := range got {
		if st != want {
			t.Errorf("goroutine %d: %+v, want %+v", g, st, want)
		}
	}
}

func TestAppendRejectsTooManyRecords(t *testing.T) {
	var rec Recorded
	for i := 0; i < 1<<16; i++ {
		if err := rec.Append(isa.Trace{PC: uint32(4 * i), Inst: isa.Inst{Op: isa.ADD, Rd: 5}}); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := rec.Append(isa.Trace{PC: 4 << 16, Inst: isa.Inst{Op: isa.ADD, Rd: 5}}); err == nil {
		t.Fatal("65,537th distinct record accepted")
	}
	// A repeat of a stored record still fits.
	if err := rec.Append(isa.Trace{PC: 0, Inst: isa.Inst{Op: isa.ADD, Rd: 5}}); err != nil {
		t.Fatal(err)
	}
}

func TestPortWindowDoesNotAlias(t *testing.T) {
	// With 1024-entry windows and 1024-cycle latencies, requests reach
	// far more than 16,384 cycles past fetch: a fixed window of that size
	// overwrote live port claims and reported 199,680,842 and 51,223,658
	// cycles.
	rec := record(t, "gap")
	low := Lower(rec, DefaultConfig().Geometry())
	for _, c := range []struct {
		lat     int
		missLat int
		cycles  uint64
	}{{1024, 1024, 204824027}, {256, 20, 51224027}} {
		cfg := DefaultConfig()
		cfg.ROB, cfg.IQ, cfg.LSQ = 1024, 1024, 1024
		cfg.MulLat, cfg.DivLat, cfg.MissLat = c.lat, c.lat, c.missLat
		want := Stats{Instrs: 520008, Cycles: c.cycles, CondBr: 72001, Mispredicts: 4003, Loads: 4001, LoadMisses: 17}
		want.IPC = float64(want.Instrs) / float64(want.Cycles)
		want.MPKI = 1000 * float64(want.Mispredicts) / float64(want.Instrs)
		want.MissRate = float64(want.LoadMisses) / float64(want.Loads)
		if got, _ := Replay(low, cfg); got != want {
			t.Errorf("latencies %d, miss %d:\n got %+v\nwant %+v", c.lat, c.missLat, got, want)
		}
	}
}

func TestContendedALUHasNoEquivalentWidth(t *testing.T) {
	// Four independent ADDs fetched a cycle contend for one ALU pipe, so
	// the run cannot stand in for any other back-end width.
	rec := recordOf(independentALU(20000))
	cfg := DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth = 4, 3
	narrow, minBack := Replay(Lower(rec, cfg.Geometry()), cfg)
	if minBack != 0 {
		t.Fatalf("contended run reports minBack %d, want 0", minBack)
	}
	cfg.BackWidth = 4
	if wide := Run(rec, cfg); wide.Cycles >= narrow.Cycles {
		t.Fatalf("a second ALU pipe did not help: %d vs %d cycles", wide.Cycles, narrow.Cycles)
	}
}

func TestUncontendedRunCoversEveryWidthFromMinBack(t *testing.T) {
	// A dependent chain with a divide in every eighth link issues at
	// most one ALU op a cycle and never finds its divider busy: one
	// pipe serves it, so every BackWidth from 3 up times it alike.
	trs := dependentChain(4000)
	for k := 0; k < len(trs); k += 8 {
		trs[k].Inst.Op = isa.DIV
	}
	rec := recordOf(trs)
	cfg := DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth = 4, 7
	want, minBack := Replay(Lower(rec, cfg.Geometry()), cfg)
	if minBack != 3 {
		t.Fatalf("minBack %d, want 3", minBack)
	}
	for be := 3; be <= 9; be++ {
		cfg.BackWidth = be
		if got := Run(rec, cfg); got != want {
			t.Errorf("back width %d: %+v, want %+v", be, got, want)
		}
	}
}

func TestReplayRejectsOtherGeometry(t *testing.T) {
	cfg := DefaultConfig()
	low := Lower(recordOf(dependentChain(10)), cfg.Geometry())
	cfg.PredBits++
	defer func() {
		if recover() == nil {
			t.Fatal("Replay accepted a stream lowered for another geometry")
		}
	}()
	Replay(low, cfg)
}

func TestDividerBookedAheadCountsAsBusy(t *testing.T) {
	// The first divide waits on a missing load and books its divider
	// from about cycle 25; the second is independent and issues at once,
	// using one ALU port a cycle. Its divider was free only because a
	// second one existed: on one divider it waits for the first.
	trs := []isa.Trace{
		{PC: 0, Inst: isa.Inst{Op: isa.LW, Rd: 5}, MemAddr: 4096},
		{PC: 4, Inst: isa.Inst{Op: isa.DIV, Rd: 6, Rs1: 5, Rs2: 5}},
		{PC: 8, Inst: isa.Inst{Op: isa.DIV, Rd: 7}},
	}
	rec := recordOf(trs)
	cfg := DefaultConfig()
	cfg.BackWidth = 4
	two, minBack := Replay(Lower(rec, cfg.Geometry()), cfg)
	if minBack != 4 {
		t.Fatalf("minBack %d, want 4", minBack)
	}
	cfg.BackWidth = 3
	if one := Run(rec, cfg); one.Cycles <= two.Cycles {
		t.Fatalf("one divider: %d cycles, two: %d; want more on one", one.Cycles, two.Cycles)
	}
}
