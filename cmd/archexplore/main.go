// Command archexplore runs the architectural design-space experiments
// (paper Figures 11-15): ALU and core pipeline-depth sweeps, the
// superscalar width matrices, and the wire-delay ablation. Selected
// experiments run concurrently; output stays in selection order.
//
// Usage:
//
//	archexplore [common flags] [aludepth|coredepth|width|area|wire|all]
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

	"repro/biodeg"
	"repro/internal/cli"
)

var byName = map[string]string{
	"aludepth":  "fig12",
	"coredepth": "fig11",
	"width":     "fig13",
	"area":      "fig14",
	"wire":      "fig15",
	"absfreq":   "absfreq",
	"energy":    "energy",
	"variation": "variation",
	"dynamic":   "dynamic",
}

func main() {
	opts := cli.Register(flag.CommandLine)
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	var ids []string
	if which == "all" {
		ids = []string{"fig12", "fig11", "fig13", "fig14", "fig15", "variation", "dynamic", "energy", "absfreq"}
	} else {
		id, ok := byName[which]
		if !ok {
			fmt.Fprintf(os.Stderr, "archexplore: unknown experiment %q (want aludepth|coredepth|width|area|wire|energy|absfreq|all)\n", which)
			os.Exit(2)
		}
		ids = []string{id}
	}
	run, ctx, err := opts.Start("archexplore")
	if err != nil {
		fmt.Fprintf(os.Stderr, "archexplore: %v\n", err)
		os.Exit(1)
	}
	session := biodeg.New(opts.Config)
	results, err := session.RunExperiments(ctx, ids...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archexplore: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		for _, t := range r.Tables {
			fmt.Println(t.Render())
		}
	}
	biodeg.RecordResults(run.Manifest, results)
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "archexplore: %v\n", err)
		os.Exit(1)
	}
}
