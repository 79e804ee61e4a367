// Command ledger is the benchmark's per-layer ledger. It calls each
// layer's public functions directly, with the inputs the benchmark
// workloads use, and times every call inside its own span. All of the
// benchmark's coupling to the repository's internal packages lives
// here, so a change to an internal signature breaks only this binary.
//
// Usage:
//
//	ledger -libcache DIR -workers 2 layers   print the ledger as one JSON object
//	ledger -workers 2 resim < bodies         re-simulate POST /v1/simulate bodies
//
// -libcache must name a filled lib cache: cells.Library reads only the
// process default configuration that the command line installs.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/biodeg/api"
	"repro/internal/cells"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/uarch"
	"repro/internal/workload"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	flag.Parse()
	_, ctx, err := opts.Start("ledger")
	if err == nil {
		switch flag.Arg(0) {
		case "layers":
			err = layers(ctx, opts.LibCache, os.Stdout)
		case "resim":
			err = resim(ctx, os.Stdin, os.Stdout)
		default:
			err = fmt.Errorf("unknown mode %q (want layers or resim)", flag.Arg(0))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

// minSpan is how long a row repeats its call before reporting the mean.
const minSpan = 300 * time.Millisecond

// cost is the mean cost of one call, measured by span.
type cost struct {
	ns, bytes, allocs float64
	n                 int
}

// span times fn. The first call counts alone when it takes minSpan or
// more; otherwise it warms caches and later calls repeat until minSpan
// has passed. Bytes and allocations are process-wide, so a call that
// fans out to worker goroutines is charged for all of them.
func span(fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fn(); err != nil {
		return cost{}, err
	}
	n := 1
	if time.Since(start) < minSpan {
		runtime.ReadMemStats(&before)
		start, n = time.Now(), 0
		for n == 0 || time.Since(start) < minSpan {
			if err := fn(); err != nil {
				return cost{}, err
			}
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	f := float64(n)
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / f,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / f,
		allocs: float64(after.Mallocs-before.Mallocs) / f,
		n:      n,
	}, nil
}

type row struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// Sinks keep measured results live so no call is optimized away.
var (
	sinkF float64
	sinkA any
)

// tunedCore is the core the IPC kernel was tuned on: the configuration
// BENCH_pr10.json records.
func tunedCore() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.FrontWidth, cfg.BackWidth, cfg.FrontStages = 1, 3, 4
	return cfg
}

// layers measures one row per layer metric and writes them as one JSON
// object keyed by metric name.
func layers(ctx context.Context, libcache string, w io.Writer) error {
	if libcache == "" {
		return errors.New("layers needs -libcache naming a filled lib cache")
	}
	rows := map[string]row{}
	put := func(name string, v float64, n int) { rows[name] = row{v, n} }
	org, sil := cells.Organic(), cells.Silicon()

	// device: the level-61 model over the organic bias grid, -20..20 V
	// on both terminals (VDD 5 V, VSS -15 V), and the fig4 fit.
	golden := device.PentaceneGolden()
	const gridN = 101
	c, err := span(func() error {
		for i := 0; i < gridN; i++ {
			for j := 0; j < gridN; j++ {
				sinkF += golden.ID(-20+0.4*float64(i), -20+0.4*float64(j))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("device.level61_eval_ns", c.ns/(gridN*gridN), c.n*gridN*gridN)
	curves := []device.TransferCurve{device.SynthesizeTransfer(device.PentaceneGolden(), 1, 81, 0.03)}
	if c, err = span(func() error {
		sinkF += device.FitLevel61(curves, device.PentaceneGeometry()).RMSLogErr
		return nil
	}); err != nil {
		return err
	}
	put("device.fit_level61_ms", c.ns/1e6, c.n)

	// spice: the pseudo-E inverter's operating point at its switching
	// region, and one characterization transient of the organic INV
	// driving an FO4 load.
	dc := spice.NewCircuit()
	dc.MaxStep = 2.0
	in, out, vdd, vss := dc.Node("in"), dc.Node("out"), dc.Node("vdd"), dc.Node("vss")
	dc.V("VDD", vdd, spice.Ground, spice.DC(5))
	dc.V("VSS", vss, spice.Ground, spice.DC(-15))
	dc.V("VIN", in, spice.Ground, spice.DC(2.5))
	cells.BuildOrganicInverter(dc, cells.PseudoE, in, out, vdd, vss)
	if c, err = span(func() error {
		op, err := dc.DCOperatingPoint()
		sinkF += op.V(out)
		return err
	}); err != nil {
		return err
	}
	put("spice.dc_op_ms", c.ns/1e6, c.n)
	tran, err := fo4Transient(org)
	if err != nil {
		return err
	}
	if c, err = span(tran); err != nil {
		return err
	}
	put("spice.transient_ms", c.ns/1e6, c.n)
	put("spice.transient_bytes", c.bytes, c.n)
	put("spice.transient_allocs", c.allocs, c.n)

	// cells: full NLDM characterization of each library, and the fig7
	// inverter DC analysis.
	var charBytes, charAllocs float64
	for _, t := range []struct {
		name string
		tech *cells.Technology
	}{{"organic", org}, {"silicon", sil}} {
		if c, err = span(func() error {
			lib, err := cells.CharacterizeCtx(ctx, t.tech, cells.DefaultCharConfig())
			sinkA = lib
			return err
		}); err != nil {
			return err
		}
		put("cells.characterize_"+t.name+"_s", c.ns/1e9, c.n)
		charBytes += c.bytes
		charAllocs += c.allocs
	}
	put("cells.characterize_bytes", charBytes, 2)
	put("cells.characterize_allocs", charAllocs, 2)
	if c, err = span(func() error {
		d, _, err := cells.AnalyzeOrganicInverter(cells.PseudoE, 15, -15, 151)
		sinkA = d
		return err
	}); err != nil {
		return err
	}
	put("cells.inverter_dc_ms", c.ns/1e6, c.n)

	// liberty: parse both cached libraries.
	if c, err = span(func() error {
		for _, t := range []*cells.Technology{org, sil} {
			f, err := os.Open(filepath.Join(libcache, t.Name+".lib"))
			if err != nil {
				return err
			}
			lib, err := liberty.Read(f)
			f.Close()
			if err != nil {
				return err
			}
			sinkA = lib
		}
		return nil
	}); err != nil {
		return err
	}
	put("liberty.read_ms", c.ns/1e6, c.n)

	// sta and pipeline: the complex ALU of fig12 on each technology, and
	// a 30-stage partition of the organic critical path.
	alu := logic.BuildComplexALU(32)
	techs := []*core.Tech{core.SiliconTech(), core.OrganicTech()}
	var res *sta.Result // the last analysis: the organic ALU
	if c, err = span(func() error {
		for _, t := range techs {
			r, err := sta.AnalyzeNetlist(alu, t.Lib, t.Wire, sta.Options{UseWire: true})
			if err != nil {
				return err
			}
			res = r
		}
		return nil
	}); err != nil {
		return err
	}
	put("sta.analyze_ms", c.ns/1e6/float64(len(techs)), c.n*len(techs))
	if c, err = span(func() error {
		sinkF += pipeline.PartitionMinMax(res.Profile, 30)
		return nil
	}); err != nil {
		return err
	}
	put("pipeline.partition_us", c.ns/1e3, c.n)

	// isa and uarch: every workload executed functionally, then through
	// the uncached IPC path (functional execution plus the timing model)
	// on the tuned core; timing-only cost is the difference.
	var total uint64 // instructions per pass over every workload
	if c, err = span(func() error {
		total = 0
		for _, wl := range workload.All() {
			m, err := wl.NewMachine()
			if err != nil {
				return err
			}
			if err := m.Run(wl.MaxInstr, nil); err != nil {
				return err
			}
			if err := wl.Verify(m); err != nil {
				return err
			}
			total += m.Instret
		}
		return nil
	}); err != nil {
		return err
	}
	functional := c.ns / float64(total)
	put("isa.functional_ns_per_instr", functional, c.n*int(total))
	cfg := tunedCore()
	if c, err = span(func() error {
		for _, wl := range workload.All() {
			st, err := core.BenchIPCUncachedCtx(ctx, wl.Name, cfg)
			if err != nil {
				return err
			}
			sinkA = st
		}
		return nil
	}); err != nil {
		return err
	}
	sims := float64(len(workload.All()))
	put("uarch.run_ns_per_instr", c.ns/float64(total), c.n*int(total))
	put("uarch.timing_ns_per_instr", c.ns/float64(total)-functional, c.n*int(total))
	put("uarch.run_bytes", c.bytes/sims, c.n*int(sims))
	put("uarch.run_allocs", c.allocs/sims, c.n*int(sims))

	// runner: dispatch cost of one no-op task on the worker pool.
	const tasks = 10000
	if c, err = span(func() error {
		_, err := runner.Map(ctx, tasks, func(context.Context, int) (struct{}, error) { return struct{}{}, nil })
		return err
	}); err != nil {
		return err
	}
	put("runner.task_overhead_us", c.ns/tasks/1e3, c.n*tasks)

	return json.NewEncoder(w).Encode(rows)
}

// fo4Transient builds one characterization transient of the technology's
// INV: a full-swing input ramp of one time scale into an output loaded
// with four INV input capacitances, 1200 time steps, as the NLDM
// characterization runs it.
func fo4Transient(t *cells.Technology) (func() error, error) {
	var inv *cells.Proto
	for _, p := range t.Protos {
		if p.Name == "INV" {
			inv = p
		}
	}
	if inv == nil {
		return nil, fmt.Errorf("%s has no INV", t.Name)
	}
	c := spice.NewCircuit()
	c.MaxStep = t.MaxStep
	vdd, vss, in, out := c.Node("vdd"), c.Node("vss"), c.Node("in"), c.Node("out")
	c.V("VDD", vdd, spice.Ground, spice.DC(t.VDD))
	c.V("VSS", vss, spice.Ground, spice.DC(t.VSS))
	tramp := t.TimeScale
	window := 6*tramp + 60*t.TimeScale
	hold := 0.15 * window
	c.V("VIN", in, spice.Ground, spice.Ramp{V0: 0, V1: t.VDD, T0: hold, T1: hold + tramp})
	inv.Build(c, map[string]spice.Node{"vdd": vdd, "vss": vss, inv.Inputs[0]: in, inv.Output: out})
	c.C("CL", out, spice.Ground, 4*inv.InputCap)
	return func() error {
		tr, err := c.Transient(window, window/1200, out)
		sinkA = tr
		return err
	}, nil
}

// resim reads one POST /v1/simulate body per line and writes, per line,
// the wire-form statistics of the same simulation run through the
// uncached IPC path in this process.
func resim(ctx context.Context, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		var req api.SimulateRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return fmt.Errorf("request %q: %w", sc.Bytes(), err)
		}
		st, err := core.BenchIPCUncachedCtx(ctx, req.Bench, req.Config.Core())
		if err != nil {
			return err
		}
		if err := enc.Encode(api.FromStats(st)); err != nil {
			return err
		}
	}
	return sc.Err()
}
