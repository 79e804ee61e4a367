// Command benchrun executes one workload (or all) on a configured core
// and prints IPC and pipeline statistics. With "all", every benchmark
// runs even if an earlier one fails; failures are reported per
// benchmark and the exit status is non-zero if any failed.
//
// Usage:
//
//	benchrun [-fe N] [-be N] [-front-stages N] [common flags] [benchmark|all]
//
// Performance measurement lives in the repository benchmark (bash
// bench/run.sh, see bench/README.md), not here.
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -faults, -retries,
// -stage-timeout, -partial, -checkpoint, -log-format, -log-level.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/biodeg"
	"repro/internal/cli"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	fe := flag.Int("fe", 1, "front-end width (fetch/dispatch/retire)")
	be := flag.Int("be", 3, "back-end execution pipes (1 mem + 1 control + be-2 ALU)")
	depthF := flag.Int("front-stages", 4, "fetch-to-dispatch pipeline stages")
	flag.Parse()
	which := flag.Arg(0)
	if which == "" {
		which = "all"
	}
	valid := biodeg.Benchmarks()
	benches := valid
	if which != "all" {
		found := false
		for _, b := range valid {
			if b == which {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchrun: unknown benchmark %q (valid: %s, or \"all\")\n",
				which, strings.Join(valid, ", "))
			os.Exit(2)
		}
		benches = []string{which}
	}
	run, ctx, err := opts.Start("benchrun")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	session := biodeg.New(opts.Config)
	cfg := biodeg.DefaultCore()
	cfg.FrontWidth = *fe
	cfg.BackWidth = *be
	cfg.FrontStages = *depthF
	failed := 0
	fmt.Printf("%-10s %8s %10s %8s %9s %9s\n", "bench", "IPC", "instrs", "cycles", "MPKI", "missrate")
	for _, b := range benches {
		st, err := session.SimulateIPC(ctx, b, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", b, err)
			failed++
			continue
		}
		fmt.Printf("%-10s %8.3f %10d %8d %9.2f %9.3f\n", b, st.IPC, st.Instrs, st.Cycles, st.MPKI, st.MissRate)
	}
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchrun: %d of %d benchmarks failed\n", failed, len(benches))
		os.Exit(1)
	}
}
