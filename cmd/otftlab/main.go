// Command otftlab runs the device- and cell-level experiments of the
// reproduction (paper Figures 3-9): transfer characteristics, model
// fitting, inverter style comparison, bias sweeps, and standard-cell
// library characterization.
//
// Usage:
//
//	otftlab [common flags] [fig3|fig4|fig6|fig7|fig8|fig9|all]
//	otftlab lib [organic|silicon]   # dump a Synopsys .lib to stdout
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -faults, -retries,
// -stage-timeout, -partial, -checkpoint, -log-format, -log-level.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/biodeg"
	"repro/internal/cli"
	"repro/internal/liberty"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	run, ctx, err := opts.Start("otftlab")
	if err != nil {
		fmt.Fprintf(os.Stderr, "otftlab: %v\n", err)
		os.Exit(1)
	}
	if which == "lib" {
		tech := biodeg.Organic
		if flag.Arg(1) == "silicon" {
			tech = biodeg.Silicon
		}
		if err := errors.Join(liberty.WriteSynopsys(os.Stdout, biodeg.Library(tech())), run.Finish()); err != nil {
			fmt.Fprintf(os.Stderr, "otftlab: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ids := []string{"fig3", "fig4", "fig6", "fig7", "fig8", "fig9"}
	if which != "all" {
		ids = []string{which}
	}
	session := biodeg.New(opts.Config)
	results, err := session.RunExperiments(ctx, ids...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "otftlab: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		for _, t := range r.Tables {
			fmt.Println(t.Render())
		}
	}
	biodeg.RecordResults(run.Manifest, results)
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "otftlab: %v\n", err)
		os.Exit(1)
	}
}
