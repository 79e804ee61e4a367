// Command replicate runs every experiment of the reproduction in paper
// order and prints the full paper-vs-measured report (the source of
// EXPERIMENTS.md). Independent experiments execute concurrently on a
// worker pool; output stays in registry order and is identical to a
// serial run.
//
// Usage:
//
//	replicate [-only fig3,fig11,...] [-json] [common flags]
//
// With -json, the rendered report is replaced by a JSON array of
// versioned biodeg/api.ExperimentResult values — the same wire shape
// the biodegd daemon serves — for downstream tooling.
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -faults, -retries,
// -stage-timeout, -partial, -checkpoint, -log-format, -log-level.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/cli"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all, in registry order)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array of api.ExperimentResult instead of the rendered report")
	flag.Parse()
	run, ctx, err := opts.Start("replicate")
	if err != nil {
		fmt.Fprintf(os.Stderr, "replicate: %v\n", err)
		os.Exit(1)
	}

	start := time.Now()
	session := biodeg.New(opts.Config)
	defer session.Close() //nolint:errcheck // committed records are already durable
	var results []biodeg.ExperimentResult
	if *only != "" {
		ids := strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
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
			out[i] = api.ExperimentResult{
				Version: api.Version,
				ID:      r.Experiment.ID,
				Title:   r.Experiment.Title,
				WallMS:  float64(r.Wall.Nanoseconds()) / 1e6,
				Tables:  make([]api.Table, len(r.Tables)),
			}
			for j, t := range r.Tables {
				out[i].Tables[j] = api.FromTable(t)
			}
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
