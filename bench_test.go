// Package repro_test is the benchmark harness of the reproduction: one
// testing.B benchmark per paper table/figure, each running the full
// experiment and reporting its headline numbers as custom metrics, plus
// ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Expensive artifacts (characterized libraries, synthesized stages, IPC
// runs) are cached process-wide, so each bench pays the cost once.
package repro_test

import (
	"context"
	"testing"

	"repro/biodeg"
	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/sta"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// benchSession is the one Session every benchmark shares, so expensive
// cached artifacts are paid for once across the whole bench run, same
// as before the Session migration (the caches are process-wide).
var (
	benchConfig  biodeg.Config
	benchSession = biodeg.New(benchConfig)
)

func reportOpt(b *testing.B, freq []float64) {
	opt := 0
	for i := range freq {
		if freq[i] > freq[opt] {
			opt = i
		}
	}
	b.ReportMetric(float64(opt+1), "optimal-stages")
	b.ReportMetric(freq[opt], "peak-freq-x")
}

// BenchmarkFig03DeviceTransfer regenerates the Figure 3 device table.
func BenchmarkFig03DeviceTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curve := device.SynthesizeTransfer(device.PentaceneGolden(), 1, 201, 0.04)
		p := device.ExtractDCParams(curve, device.PentaceneGeometry())
		b.ReportMetric(p.MuLin*1e4, "mu-cm2/Vs")
		b.ReportMetric(p.SS*1e3, "SS-mV/dec")
		b.ReportMetric(p.OnOffRatio, "on/off")
	}
}

// BenchmarkFig04ModelFit regenerates the Figure 4 fit comparison.
func BenchmarkFig04ModelFit(b *testing.B) {
	curves := []device.TransferCurve{device.SynthesizeTransfer(device.PentaceneGolden(), 1, 81, 0.03)}
	geom := device.PentaceneGeometry()
	for i := 0; i < b.N; i++ {
		r1 := device.FitLevel1(curves, geom)
		r61 := device.FitLevel61(curves, geom)
		b.ReportMetric(r1.RMSLogErr, "level1-rms")
		b.ReportMetric(r61.RMSLogErr, "level61-rms")
	}
}

// BenchmarkFig06InverterComparison regenerates the Figure 6(d) table.
func BenchmarkFig06InverterComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diode, err := biodeg.InverterDC(biodeg.DiodeLoad, 15, 0)
		if err != nil {
			b.Fatal(err)
		}
		pseudo, err := biodeg.InverterDC(biodeg.PseudoE, 15, -15)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pseudo.Gain/diode.Gain, "gain-ratio")
		b.ReportMetric(pseudo.NMH, "pseudoE-NMH-V")
	}
}

// BenchmarkFig07PseudoEVDD regenerates the Figure 7(d) rows.
func BenchmarkFig07PseudoEVDD(b *testing.B) {
	rails := [][2]float64{{5, -15}, {10, -20}, {15, -15}}
	for i := 0; i < b.N; i++ {
		var vm5 float64
		for _, r := range rails {
			dc, err := biodeg.InverterDC(biodeg.PseudoE, r[0], r[1])
			if err != nil {
				b.Fatal(err)
			}
			if r[0] == 5 {
				vm5 = dc.VM
			}
		}
		b.ReportMetric(vm5, "VM-at-5V")
	}
}

// BenchmarkFig08VMvsVSS regenerates the Figure 8(b) regression.
func BenchmarkFig08VMvsVSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := benchSession.RunExperiment(context.Background(), "fig8")
		if err != nil {
			b.Fatal(err)
		}
		_ = tables
	}
}

// BenchmarkFig09CellLibrary characterizes both 6-cell libraries on
// every iteration. It calls cells.CharacterizeCtx, not the process-wide
// library memo, so its ns/op is one characterization of both libraries.
func BenchmarkFig09CellLibrary(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		org, err := cells.CharacterizeCtx(ctx, cells.Organic(), cells.DefaultCharConfig())
		if err != nil {
			b.Fatal(err)
		}
		sil, err := cells.CharacterizeCtx(ctx, cells.Silicon(), cells.DefaultCharConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(org.FO4(), "organic-fo4-s")
		b.ReportMetric(sil.FO4()*1e12, "silicon-fo4-ps")
		b.ReportMetric(org.FO4()/sil.FO4(), "fo4-ratio")
	}
}

// BenchmarkFig12ALUDepth regenerates the Figure 12 sweeps.
func BenchmarkFig12ALUDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		silPts, err := benchSession.ALUDepth(context.Background(), biodeg.Silicon(), 30)
		if err != nil {
			b.Fatal(err)
		}
		orgPts, err := benchSession.ALUDepth(context.Background(), biodeg.Organic(), 30)
		if err != nil {
			b.Fatal(err)
		}
		silF, _ := core.NormalizePoints(silPts)
		orgF, _ := core.NormalizePoints(orgPts)
		reportOpt(b, silF)
		b.ReportMetric(orgF[21], "organic-freq-at-22x")
	}
}

// BenchmarkFig11CoreDepth regenerates the Figure 11 sweeps.
func BenchmarkFig11CoreDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
			pts, err := benchSession.CoreDepth(context.Background(), tech, 9, 15)
			if err != nil {
				b.Fatal(err)
			}
			norm := core.NormalizeDepth(pts)
			var avg float64
			for _, bench := range biodeg.Benchmarks() {
				avg += float64(core.BestDepth(norm, bench))
			}
			avg /= float64(len(biodeg.Benchmarks()))
			if tech.Name == "organic" {
				b.ReportMetric(avg, "organic-mean-best-depth")
			} else {
				b.ReportMetric(avg, "silicon-mean-best-depth")
			}
		}
	}
}

// BenchmarkFig13WidthPerf regenerates the Figure 13 matrices.
func BenchmarkFig13WidthPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
			pts, err := benchSession.Widths(context.Background(), tech)
			if err != nil {
				b.Fatal(err)
			}
			fe, be := core.Optimal(pts)
			if tech.Name == "organic" {
				b.ReportMetric(float64(be), "organic-opt-backend")
				_ = fe
			} else {
				b.ReportMetric(float64(be), "silicon-opt-backend")
			}
		}
	}
}

// BenchmarkFig14WidthArea regenerates the Figure 14 matrices.
func BenchmarkFig14WidthArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var maxDiff float64
		var mats [][][]float64
		for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
			pts, err := benchSession.Widths(context.Background(), tech)
			if err != nil {
				b.Fatal(err)
			}
			mats = append(mats, core.Matrix(pts, true))
		}
		for r := range mats[0] {
			for c := range mats[0][r] {
				if d := mats[0][r][c] - mats[1][r][c]; d > maxDiff || -d > maxDiff {
					if d < 0 {
						d = -d
					}
					maxDiff = d
				}
			}
		}
		b.ReportMetric(maxDiff, "max-matrix-diff")
	}
}

// BenchmarkFig15WireEffect regenerates the wire-delay ablation.
func BenchmarkFig15WireEffect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wet, err := core.ALUDepthSweep(context.Background(), core.SiliconTech(), 30, true)
		if err != nil {
			b.Fatal(err)
		}
		dry, err := core.ALUDepthSweep(context.Background(), core.SiliconTech(), 30, false)
		if err != nil {
			b.Fatal(err)
		}
		fWet, _ := core.NormalizePoints(wet)
		fDry, _ := core.NormalizePoints(dry)
		b.ReportMetric(fDry[29]/fWet[29], "silicon-nowire-gain-x")
	}
}

// BenchmarkAbsoluteFrequency reports the Section 5.3 absolute numbers.
func BenchmarkAbsoluteFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sil, err := benchSession.CoreDepth(context.Background(), biodeg.Silicon(), 9, 9)
		if err != nil {
			b.Fatal(err)
		}
		org, err := benchSession.CoreDepth(context.Background(), biodeg.Organic(), 9, 9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sil[0].Freq/1e6, "silicon-baseline-MHz")
		b.ReportMetric(org[0].Freq, "organic-baseline-Hz")
	}
}

// BenchmarkParallelExperiments measures the runner-pool experiment
// fan-out: the cheap device-level figures dispatched together through
// Session.RunExperiments. Compare against running the same IDs serially
// to see the pool's effect on a multi-core host; the workers metric
// records the pool size the run actually used (the configured worker
// count, else GOMAXPROCS).
func BenchmarkParallelExperiments(b *testing.B) {
	ids := []string{"fig3", "fig4", "fig6", "fig7", "fig8"}
	for i := 0; i < b.N; i++ {
		if _, err := benchSession.RunExperiments(context.Background(), ids...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchConfig.WorkerCount()), "workers")
}

// recordGzip runs gzip on the functional ISA and returns its recorded
// stream.
func recordGzip(b *testing.B) *uarch.Recorded {
	b.Helper()
	w := workload.ByName("gzip")
	m, err := w.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	rec, err := uarch.Record(m, w.MaxInstr)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Verify(m); err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkWorkloadSimulation measures the two halves of an IPC
// simulation: recording a workload on the functional ISA, which a
// process does once per workload, and replaying the recorded stream
// through the cycle model, which every configuration does.
func BenchmarkWorkloadSimulation(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			recordGzip(b)
		}
	})
	b.Run("replay", func(b *testing.B) {
		rec := recordGzip(b)
		cfg := uarch.DefaultConfig()
		cfg.FrontWidth = 2
		cfg.BackWidth = 4
		b.ResetTimer()
		var instrs uint64
		for i := 0; i < b.N; i++ {
			instrs += uarch.Run(rec, cfg).Instrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	})
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationWireStrength sweeps the feedback-wire constant: the
// causal mechanism of the paper. Weaker wire cost pushes the silicon
// ALU optimum deeper.
func BenchmarkAblationWireStrength(b *testing.B) {
	tech := core.SiliconTech()
	alu, err := core.ALUResult(tech, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := map[float64]int{}
		for _, k := range []float64{1, 2, 4} {
			cfg := pipeline.Config{RankBits: core.ALURankBits, Wire: tech.Wire, UseWire: true, FeedbackK: k}
			pts := pipeline.SweepDepth(context.Background(), alu, tech.DFF(), cfg, 30)
			res[k] = pipeline.OptimalDepth(pts).Stages
		}
		b.ReportMetric(float64(res[1]), "opt-at-k1")
		b.ReportMetric(float64(res[2]), "opt-at-k2")
		b.ReportMetric(float64(res[4]), "opt-at-k4")
	}
}

// BenchmarkAblationPredictorSize varies the gshare size: a weaker
// predictor steepens the IPC-versus-depth penalty.
func BenchmarkAblationPredictorSize(b *testing.B) {
	rec := recordGzip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ipc := map[int]float64{}
		for _, bits := range []int{6, 10, 14} {
			cfg := uarch.DefaultConfig()
			cfg.FrontWidth = 2
			cfg.BackWidth = 4
			cfg.PredBits = bits
			cfg.FrontStages = 8
			ipc[bits] = uarch.Run(rec, cfg).IPC
		}
		b.ReportMetric(ipc[6], "ipc-6b")
		b.ReportMetric(ipc[14], "ipc-14b")
	}
}

// BenchmarkAblationPartitioning compares balanced critical-path cutting
// against naive equal-count chunking for the 22-stage organic ALU.
func BenchmarkAblationPartitioning(b *testing.B) {
	tech := core.OrganicTech()
	res, err := core.ALUResult(tech, true)
	if err != nil {
		b.Fatal(err)
	}
	profile := res.Profile
	for i := 0; i < b.N; i++ {
		const n = 22
		balanced := pipeline.PartitionMinMax(profile, n)
		// Naive: cut every len/n gates regardless of their delays.
		worst := 0.0
		chunk := (len(profile) + n - 1) / n
		for s := 0; s < len(profile); s += chunk {
			e := s + chunk
			if e > len(profile) {
				e = len(profile)
			}
			var sum float64
			for _, v := range profile[s:e] {
				sum += v
			}
			if sum > worst {
				worst = sum
			}
		}
		b.ReportMetric(worst/balanced, "naive-vs-balanced-x")
	}
}

// BenchmarkExtEnergyPerOp runs the energy-per-instruction extension
// (the paper's stated future work) and reports the energy-optimal
// depths of the two technologies.
func BenchmarkExtEnergyPerOp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
			pts, err := core.EnergySweep(context.Background(), tech, 9, 15)
			if err != nil {
				b.Fatal(err)
			}
			best := pts[0]
			for _, p := range pts {
				if p.EPI < best.EPI {
					best = p
				}
			}
			if tech.Name == "organic" {
				b.ReportMetric(float64(best.Depth), "organic-energy-opt-depth")
				b.ReportMetric(best.EPI, "organic-J-per-instr")
			} else {
				b.ReportMetric(float64(best.Depth), "silicon-energy-opt-depth")
				b.ReportMetric(best.EPI*1e12, "silicon-pJ-per-instr")
			}
		}
	}
}

// BenchmarkAblationAdderArchitecture compares ripple, group-CLA, and
// Kogge-Stone 32-bit adders under both technologies' timing: prefix
// adders buy depth with area and fanout, and the wire-aware STA prices
// that differently per technology.
func BenchmarkAblationAdderArchitecture(b *testing.B) {
	build := func(kind string) *logic.Netlist {
		n := logic.New(kind)
		a := n.InputBus("a", 32)
		bb := n.InputBus("b", 32)
		var sum []logic.Sig
		var cout logic.Sig
		switch kind {
		case "ripple":
			sum, cout = n.RippleCarryAdder(a, bb, n.Const(false))
		case "cla":
			sum, cout = n.CLAAdder(a, bb, n.Const(false))
		default:
			sum, cout = n.KoggeStoneAdder(a, bb, n.Const(false))
		}
		n.OutputBus("sum", sum)
		n.Output("cout", cout)
		return n
	}
	for i := 0; i < b.N; i++ {
		for _, tech := range []*biodeg.Technology{biodeg.Silicon(), biodeg.Organic()} {
			delays := map[string]float64{}
			for _, kind := range []string{"ripple", "cla", "ks"} {
				res, err := sta.AnalyzeNetlist(build(kind), tech.Lib, tech.Wire, sta.Options{UseWire: true})
				if err != nil {
					b.Fatal(err)
				}
				delays[kind] = res.CritPath
			}
			if tech.Name == "organic" {
				b.ReportMetric(delays["cla"]/delays["ks"], "organic-cla/ks")
				b.ReportMetric(delays["ripple"]/delays["ks"], "organic-ripple/ks")
			} else {
				b.ReportMetric(delays["cla"]/delays["ks"], "silicon-cla/ks")
			}
		}
	}
}

// BenchmarkExtVariationTrim runs the VT-spread / VSS-trim extension and
// reports the worst switching-threshold deviation before and after
// trimming (paper Sections 4.1 and 4.3.3).
func BenchmarkExtVariationTrim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := biodeg.VariationTrim(5, -15, []float64{-0.25, 0, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		var nominal float64
		for _, p := range pts {
			if p.VTShift == 0 {
				nominal = p.VM
			}
		}
		var before, after float64
		for _, p := range pts {
			if d := p.VM - nominal; d > before || -d > before {
				if d < 0 {
					d = -d
				}
				before = d
			}
			if d := p.VMTrimmed - nominal; d > after || -d > after {
				if d < 0 {
					d = -d
				}
				after = d
			}
		}
		b.ReportMetric(before*1e3, "VM-spread-mV")
		b.ReportMetric(after*1e3, "VM-trimmed-mV")
	}
}
