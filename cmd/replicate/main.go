// Command replicate runs every experiment of the reproduction in paper
// order and prints the full paper-vs-measured report (the source of
// EXPERIMENTS.md). Independent experiments execute concurrently on a
// worker pool; output stays in registry order and is identical to a
// serial run.
//
// Usage:
//
//	replicate [-only fig3,fig11,...] [-json] [common flags]
//	replicate -lib organic|silicon [common flags]   # Synopsys .lib to stdout
//
// With -lib, replicate writes the technology's characterized cell
// library in Synopsys Liberty syntax to stdout and runs no experiment.
// An unknown -lib technology or -only ID exits 2 before any work.
//
// With -json, the rendered report is replaced by a JSON array of
// versioned biodeg/api.ExperimentResult values — the same wire shape
// the biodegd daemon serves — for downstream tooling.
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -faults, -partial,
// -checkpoint, -log-format, -log-level.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/cli"
	"repro/internal/liberty"
)

// techs names the technologies -lib accepts.
var techs = map[string]func() *biodeg.Technology{"organic": biodeg.Organic, "silicon": biodeg.Silicon}

// usage reports a bad flag value and exits 2, the flag package's code
// for a usage error.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replicate: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	opts := cli.Register(flag.CommandLine)
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all, in registry order)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array of api.ExperimentResult instead of the rendered report")
	lib := flag.String("lib", "", "write the `tech` (organic or silicon) cell library as Synopsys Liberty to stdout instead of running experiments")
	flag.Parse()
	tech := techs[*lib]
	if *lib != "" && tech == nil {
		usage("-lib: unknown technology %q (valid: organic, silicon)", *lib)
	}
	var ids []string
	if *only != "" {
		var valid []string
		for _, e := range biodeg.Experiments() {
			valid = append(valid, e.ID)
		}
		ids = strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(valid, ids[i]) {
				usage("-only: unknown experiment %q (valid: %s)", ids[i], strings.Join(valid, ", "))
			}
		}
	}
	run, ctx, err := opts.Start("replicate")
	if err != nil {
		fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
		os.Exit(1)
	}
	if tech != nil {
		if err := errors.Join(liberty.WriteSynopsys(os.Stdout, biodeg.Library(tech())), run.Finish()); err != nil {
			fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	session := biodeg.New(opts.Config)
	defer session.Close() //nolint:errcheck // committed records are already durable
	var results []biodeg.ExperimentResult
	if ids != nil {
		results, err = session.RunExperiments(ctx, ids...)
	} else {
		results, err = session.RunAll(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		out := make([]api.ExperimentResult, len(results))
		for i, r := range results {
			out[i] = api.FromExperimentResult(r)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, r := range results {
			fmt.Printf("######## %s: %s\n", r.Experiment.ID, r.Experiment.Title)
			fmt.Printf("paper: %s\n\n", r.Experiment.Paper)
			for _, t := range r.Tables {
				fmt.Println(t.Render())
			}
		}
		fmt.Printf("total runtime: %v\n", time.Since(start))
	}
	biodeg.RecordResults(run.Manifest, results)
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
		os.Exit(1)
	}
}
