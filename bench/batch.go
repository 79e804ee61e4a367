package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, o options, t *tally) error
}

// charExperiments run only the device, SPICE and cell layers: no STA,
// no pipeline partitioning, no IPC simulation.
var charExperiments = []string{"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "variation", "dynamic"}

var workloads = []workload{
	{"replicate-cold", func(ctx context.Context, e *env, o options, t *tally) error {
		return runBatch(ctx, e, o, t, nil, false)
	}},
	{"characterize", func(ctx context.Context, e *env, o options, t *tally) error {
		return runBatch(ctx, e, o, t, charExperiments, false)
	}},
	{"replicate-warm", func(ctx context.Context, e *env, o options, t *tally) error {
		return runBatch(ctx, e, o, t, nil, true)
	}},
	{"serve-mixed", runServeMixed},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Set-up brings a workload to the state its first timed run starts from,
// and setup_s is its time. A warm workload fills one lib cache:
// characterizing both libraries takes about 8 s, so it sets up once. A
// cold workload's timed runs need only a fresh empty directory, so its
// set-up is a warm-up run: replicate on an empty cache over the five
// cheapest experiments, checked like any run, which pages the binary in
// and shows it works before timing starts. It is the fixed cost of one
// replicate process, where work moved to start-up would show. The device
// and inverter analyses make it CPU-bound (~30 ms) rather than a bare
// process start (~3 ms), whose time swings more with host load; it is
// repeated warmUps times and setup_s is the median.
var warmUpExperiments = []string{"fig3", "fig4", "fig6", "fig7", "fig8"}

const warmUps = 9

// runBatch measures back-to-back `replicate -json` runs over the given
// experiments (nil = all) until the window has passed. A cold workload
// gives every run a fresh empty lib cache; a warm workload fills one lib
// cache in set-up that every run then reads.
func runBatch(ctx context.Context, e *env, o options, t *tally, only []string, warm bool) error {
	if o.only != nil {
		only = o.only
	}
	var setups []float64
	libcache := ""
	reps := warmUps
	if warm {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		dir, err := e.dir("libcache")
		if err != nil {
			return err
		}
		if warm {
			err = e.fill(ctx, dir)
			libcache = dir
		} else {
			_, _, err = e.replicate(ctx, dir, warmUpExperiments, "")
		}
		t.attempted++
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	t.set("setup_s", median(setups), len(setups))

	var walls, cpus, rss []float64
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < o.window; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir := libcache
		if !warm {
			var err error
			if dir, err = e.dir("libcache"); err != nil {
				return err
			}
		}
		s, _, err := e.replicate(ctx, dir, only, "")
		if !t.op(err) {
			continue
		}
		walls = append(walls, ms(s.wall))
		cpus = append(cpus, ms(s.cpu))
		rss = append(rss, s.rssMB)
	}
	elapsed := time.Since(begin)
	n := len(walls)
	if n == 0 {
		return errors.New("every repetition failed")
	}
	t.set("ops_per_s", float64(n)/elapsed.Seconds(), n)
	t.set("latency_p99_ms", percentile(walls, 0.99), n)
	t.set("latency_p50_ms", median(walls), n)
	t.set("cpu_ms_per_op", median(cpus), n)
	t.set("peak_rss_mb", median(rss), n)
	return nil
}

// usage is one child process's cost.
type usage struct {
	wall, cpu time.Duration
	rssMB     float64
}

// exec runs one built binary to completion and returns its standard
// output and cost. The child is killed if the benchmark dies first.
func (e *env) exec(ctx context.Context, name string, stdin []byte, args ...string) ([]byte, usage, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, usage{}, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail(stderr.Bytes()))
	}
	u := usage{wall: wall, cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return stdout.Bytes(), u, nil
}

// tail returns the last few lines of a child's diagnostics.
func tail(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(len(lines)-5, 0):], " | ")
}

// replicate runs `replicate -json` over ids (nil = every experiment)
// against the lib cache directory, optionally writing a JSONL trace, and
// checks the output against the reference. It returns the run's cost and
// how many tables matched the reference bit for bit.
func (e *env) replicate(ctx context.Context, libcache string, ids []string, jsonl string) (usage, int, error) {
	args := []string{"-json", "-workers", workers, "-libcache", libcache}
	if ids != nil {
		args = append(args, "-only", strings.Join(ids, ","))
	}
	if jsonl != "" {
		args = append(args, "-jsonl", jsonl)
	}
	out, u, err := e.exec(ctx, "replicate", nil, args...)
	if err != nil {
		return u, 0, err
	}
	identical, err := e.ref.check(out, ids)
	if err != nil {
		return u, identical, fmt.Errorf("replicate %s: %w", strings.Join(args, " "), err)
	}
	return u, identical, nil
}

// fill characterizes both technology libraries into the lib cache
// directory (the fig9 experiment does exactly that) and confirms both
// files landed, so later runs really are warm.
func (e *env) fill(ctx context.Context, libcache string) error {
	if _, _, err := e.replicate(ctx, libcache, []string{"fig9"}, ""); err != nil {
		return err
	}
	libs, err := filepath.Glob(filepath.Join(libcache, "*.lib"))
	if err != nil {
		return err
	}
	if len(libs) != 2 {
		return fmt.Errorf("lib cache %s holds %d libraries after fig9, want 2", libcache, len(libs))
	}
	return nil
}
