// Command bench is the repository's benchmark. It builds cmd/replicate,
// cmd/biodegd and the layer ledger from the checkout it runs in, drives
// one workload through them as child processes, checks every output
// against testdata/reference.json and the paper's shape invariants, and
// prints one JSON result as the last line of its output.
//
// Run it from the root of a checkout (README.md has the details):
//
//	bash bench/run.sh --workload replicate-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -repeat 2
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it runs the traced per-layer pass instead, which is
// the same for every workload. -repeat K runs every workload K times and
// prints each end-to-end metric's spread beside its bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the worker-pool size of every child process: the bounds in
// BENCHMARK.json were set on a 2-vCPU machine.
const workers = "2"

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports, in print order.
var perLayer = append(append([]metric(nil), ledgerMetrics...),
	metric{"server.hit_p50_ms", "ms"},
	metric{"server.miss_p50_ms", "ms"},
	metric{"server.sweep_p50_ms", "ms"},
	metric{"server.cache_hit_ratio", "ratio"},
	metric{"trace.cold.characterize_s", "s"},
	metric{"trace.cold.ipc_s", "s"},
	metric{"trace.cold.sta_s", "s"},
	metric{"trace.cold.pipeline_s", "s"},
	metric{"trace.cold.runner_queue_wait_s", "s"},
	metric{"trace.cold.char_blocked_s", "s"},
	metric{"trace.warm.ipc_s", "s"},
	metric{"trace.warm.sta_s", "s"},
	metric{"trace.warm.pipeline_s", "s"},
	metric{"trace.warm.runner_queue_wait_s", "s"},
	metric{"trace.ipc_count", "count"},
	metric{"trace.overhead_pct", "%"},
	metric{"check.identical_tables", "count"},
)

// ledgerMetrics are the rows the ledger binary prints, each measured by
// direct calls into one layer's public functions.
var ledgerMetrics = []metric{
	{"device.level61_eval_ns", "ns"},
	{"device.fit_level61_ms", "ms"},
	{"spice.dc_op_ms", "ms"},
	{"spice.transient_ms", "ms"},
	{"spice.transient_bytes", "B"},
	{"spice.transient_allocs", "count"},
	{"cells.characterize_organic_s", "s"},
	{"cells.characterize_silicon_s", "s"},
	{"cells.characterize_bytes", "B"},
	{"cells.characterize_allocs", "count"},
	{"cells.inverter_dc_ms", "ms"},
	{"liberty.read_ms", "ms"},
	{"sta.analyze_ms", "ms"},
	{"pipeline.partition_us", "us"},
	{"isa.functional_ns_per_instr", "ns"},
	{"uarch.run_ns_per_instr", "ns"},
	{"uarch.timing_ns_per_instr", "ns"},
	{"uarch.run_bytes", "B"},
	{"uarch.run_allocs", "count"},
	{"runner.task_overhead_us", "us"},
}

// options sizes one run. Tests shrink them; the command line sets only
// the seed and the window.
type options struct {
	seed   uint64
	window time.Duration
	// only replaces the experiments of the replicate workloads and of the
	// traced pass; nil keeps each workload's own list.
	only []string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "measurement window of one run, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = the traced per-layer pass")
	repeat := fs.Int("repeat", 0, "run every workload this many times and print each end-to-end metric's spread")
	bin := fs.String("bin", "", "directory for the built binaries (default: a temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seconds >= 1, --trace 0|1, -repeat >= 0 and no positional arguments")
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok && *repeat == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown --workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e, err := newEnv(ctx, root, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close()

	if *repeat > 0 {
		return repeatSuite(ctx, e, *repeat, o)
	}
	specs, runFn := endToEnd, w.run
	if *trace == 1 {
		specs, runFn = perLayer, tracePass
	}
	t := newTally()
	if err := runFn(ctx, e, o, t); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := t.report(os.Stdout, specs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// env is one benchmark process's built binaries, reference results and
// scratch directory.
type env struct {
	root    string // checkout root: holds go.mod, cmd/ and bench/
	bin     string
	scratch string
	ref     reference
}

// newEnv builds the three binaries from the checkout at root into bin
// (a fresh temporary directory when empty) and loads the reference
// results.
func newEnv(ctx context.Context, root, bin string) (*env, error) {
	scratch, err := os.MkdirTemp("", "bench-run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: bin, scratch: scratch}
	if e.bin == "" {
		e.bin = filepath.Join(scratch, "bin")
	}
	if err := e.build(ctx); err != nil {
		e.close()
		return nil, err
	}
	if e.ref, err = loadReference(filepath.Join(root, "bench", "testdata", "reference.json")); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) build(ctx context.Context) error {
	for _, b := range []struct {
		dir  string
		args []string
	}{
		{e.root, []string{"build", "-o", e.bin + string(filepath.Separator), "./cmd/replicate", "./cmd/biodegd"}},
		{filepath.Join(e.root, "bench"), []string{"build", "-o", filepath.Join(e.bin, "ledger"), "./ledger"}},
	} {
		cmd := exec.CommandContext(ctx, "go", b.args...)
		cmd.Dir = b.dir
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go %s in %s: %w", strings.Join(b.args, " "), b.dir, err)
		}
	}
	return nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// dir returns a fresh empty directory under the scratch directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.scratch, prefix+"-")
}

// tally accumulates one run's operation counts and metric values.
type tally struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
}

func newTally() *tally {
	return &tally{values: map[string]float64{}, samples: map[string]int{}}
}

// maxFailureLines bounds the failures printed to stderr per run.
const maxFailureLines = 20

// op counts one attempted operation and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= maxFailureLines {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
	}
	return false
}

// set records a metric measured over n samples.
func (t *tally) set(name string, v float64, n int) {
	t.values[name] = v
	t.samples[name] = n
}

// report prints one line per metric, then the result as one JSON line.
func (t *tally) report(w io.Writer, specs []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]value{}}
	for _, m := range specs {
		v, ok := t.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%-32s %16.6g %-6s n=%d\n", m.name, v, m.unit, t.samples[m.name])
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", t.attempted, t.failed)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// repeatSuite runs every workload k times with consecutive seeds and
// prints, per end-to-end metric, the spread max/min - 1 beside the
// metric's bound in BENCHMARK.json.
func repeatSuite(ctx context.Context, e *env, k int, o options) int {
	bounds, err := readBounds(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runs := map[string][]*tally{}
	exit := 0
	for i := 0; i < k; i++ {
		for _, w := range workloads {
			ro := o
			ro.seed = o.seed + uint64(i)
			t := newTally()
			if err := w.run(ctx, e, ro, t); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if t.failed > 0 {
				exit = 1
			}
			runs[w.name] = append(runs[w.name], t)
		}
	}
	fmt.Printf("%-15s %-15s %8s %8s  %s\n", "workload", "metric", "spread", "bound", "values")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var vals []string
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, t := range runs[w.name] {
				v := t.values[m.name]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, fmt.Sprintf("%.6g", v))
			}
			spread := hi/lo - 1
			verdict := ""
			if spread > bounds[m.name] {
				verdict = "  EXCEEDS BOUND"
			}
			fmt.Printf("%-15s %-15s %7.2f%% %7.0f%%  %s%s\n", w.name, m.name, 100*spread, 100*bounds[m.name], strings.Join(vals, " "), verdict)
		}
	}
	return exit
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// median returns the middle value of v (the mean of the two middle
// values when len(v) is even, NaN when v is empty); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v; v is
// reordered.
func percentile(v []float64, p float64) float64 {
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	return v[max(i, 0)]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
