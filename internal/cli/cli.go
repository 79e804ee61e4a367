// Package cli is the shared flag surface of the reproduction's
// commands. One table (knobs) declares every common flag together with
// the BIODEG_* environment variable providing its default, so
// precedence is flag > env > built-in default, and the flags bind
// straight into the fields of an embedded config.Config. This package
// is the only place the BIODEG_* environment is read: Options.Start
// resolves that Config and installs it as the process default
// configuration (internal/config), and the commands hand the same
// value to biodeg.New, so the internal packages observe the flags
// without ever touching the environment themselves.
//
// Start also turns on the observability sinks requested by the flags:
// span tracing (internal/obs) when a trace, JSONL, or manifest output
// is named, a net/http/pprof server when -pprof gives an address, and
// the process-default structured logger (-log-format text|json,
// -log-level) whose lines carry the span_id of the enclosing span so
// logs correlate with -trace output.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Options is the parsed common flag set: the runtime knobs, bound
// straight into the embedded config.Config, plus the observability
// sinks, which only this package reads. Until Start parses -faults,
// Config.Faults is unset; after Start the embedded Config is the
// effective configuration the run installed.
type Options struct {
	config.Config

	Trace     string // -trace
	JSONL     string // -jsonl
	Manifest  string // -manifest
	Pprof     string // -pprof
	LogFormat string // -log-format (text|json)
	LogLevel  string // -log-level  (debug|info|warn|error)

	faults string // -faults spec, parsed into Config.Faults by Start
	envErr error  // the BIODEG_* values the flag parsers rejected
}

// knob is one row of the common flag table: the flag, the environment
// variable providing its default, its usage line, the Options field it
// binds (a *int, *bool or *string) and the value the run manifest
// records for it. A nil manifest records a string field as is.
type knob struct {
	flag, env, usage string
	field            func(*Options) any
	manifest         func(*Options) string
}

// knobs is the only declaration of the common flags and their BIODEG_*
// environment variables.
var knobs = []knob{
	{"workers", "BIODEG_WORKERS", "worker-pool size, 0 = GOMAXPROCS",
		func(o *Options) any { return &o.Workers }, func(o *Options) string { return positive(o.Workers) }},
	{"metrics", "BIODEG_METRICS", "print the per-stage wall-time report to stderr",
		func(o *Options) any { return &o.Metrics }, func(o *Options) string { return boolEnv(o.Metrics) }},
	{"libcache", "BIODEG_LIBCACHE", "directory caching characterized libraries across runs",
		func(o *Options) any { return &o.LibCache }, nil},
	{"trace", "BIODEG_TRACE", "write a Chrome trace_event JSON file for chrome://tracing or Perfetto",
		func(o *Options) any { return &o.Trace }, nil},
	{"jsonl", "BIODEG_TRACE_JSONL", "write the span stream as JSON Lines",
		func(o *Options) any { return &o.JSONL }, nil},
	{"manifest", "BIODEG_MANIFEST", "write a run manifest: environment, knobs, per-experiment wall time, table digests",
		func(o *Options) any { return &o.Manifest }, nil},
	{"pprof", "BIODEG_PPROF", "serve net/http/pprof on this address, e.g. localhost:6060",
		func(o *Options) any { return &o.Pprof }, nil},
	{"faults", "BIODEG_FAULTS", "inject deterministic faults, e.g. seed=1,rate=0.1,kinds=error+latency,stages=depth-point",
		func(o *Options) any { return &o.faults }, func(o *Options) string { return o.Faults.Spec().String() }},
	{"partial", "BIODEG_PARTIAL", "annotate failed grid points and keep sweeping instead of aborting; implied by -faults",
		func(o *Options) any { return &o.PartialResults }, func(o *Options) string { return boolEnv(o.PartialResults) }},
	{"checkpoint", "BIODEG_CHECKPOINT", "directory holding the crash-safe sweep journal; a rerun with the same directory resumes, skipping journaled points",
		func(o *Options) any { return &o.Checkpoint }, nil},
	{"log-format", "BIODEG_LOG_FORMAT", "structured log encoding: text or json",
		func(o *Options) any { return &o.LogFormat }, nil},
	{"log-level", "BIODEG_LOG_LEVEL", "minimum log level: debug, info, warn, or error",
		func(o *Options) any { return &o.LogLevel }, nil},
}

// Register installs the common flags on fs and returns the Options the
// parsed values land in. A set BIODEG_* variable is parsed by its
// flag's own parser and becomes that flag's default, so precedence is
// flag > env > built-in default; a value the parser rejects fails
// Start. Call fs.Parse (or flag.Parse for the default set), then
// Options.Start.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{LogFormat: "text", LogLevel: "info"}
	for _, k := range knobs {
		usage := k.usage + " (env " + k.env + ")"
		switch p := k.field(o).(type) {
		case *int:
			fs.IntVar(p, k.flag, *p, usage)
		case *bool:
			fs.BoolVar(p, k.flag, *p, usage)
		case *string:
			fs.StringVar(p, k.flag, *p, usage)
		}
		if v := os.Getenv(k.env); v != "" {
			f := fs.Lookup(k.flag)
			if err := f.Value.Set(v); err != nil {
				o.envErr = errors.Join(o.envErr, fmt.Errorf("cli: %s=%q: invalid value for -%s: %w", k.env, v, k.flag, err))
				continue
			}
			f.DefValue = f.Value.String()
		}
	}
	return o
}

// setupLogging installs the process-default slog.Logger described by
// -log-format and -log-level: a text or JSON handler on stderr wrapped
// by obs.NewLogHandler, so every log line emitted under a traced
// context carries the span_id of its enclosing span.
func (o *Options) setupLogging() error {
	var level slog.Level
	switch o.LogLevel {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return fmt.Errorf("cli: -log-level: unknown level %q (want debug, info, warn, or error)", o.LogLevel)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var inner slog.Handler
	switch o.LogFormat {
	case "", "text":
		inner = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		inner = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		return fmt.Errorf("cli: -log-format: unknown format %q (want text or json)", o.LogFormat)
	}
	slog.SetDefault(slog.New(obs.NewLogHandler(inner)))
	return nil
}

// Run is one observed command invocation: the root span every
// instrumented call tree hangs off, and the manifest the command fills
// in as experiments complete. Create with Options.Start, finish with
// Run.Finish.
type Run struct {
	Opts     *Options
	Manifest *obs.Manifest
	root     *obs.Span
	start    time.Time
}

// Start applies the parsed options and opens the run's root span. It
// resolves the embedded Config — parsing -faults into the live
// injector and implying -partial under -faults so a bare chaos
// replicate completes with annotations instead of dying on the first
// fault — and installs it as the process default configuration, so
// code paths without a context (lazy technology characterization)
// observe the flags too.
// It enables span tracing if any sink wants it, starts the pprof
// server, and returns the Run and a context carrying the root span and
// the effective configuration.
func (o *Options) Start(tool string) (*Run, context.Context, error) {
	if o.envErr != nil {
		return nil, nil, o.envErr
	}
	if err := o.setupLogging(); err != nil {
		return nil, nil, err
	}
	spec, err := fault.Parse(o.faults)
	if err != nil {
		return nil, nil, fmt.Errorf("cli: -faults: %w", err)
	}
	o.Faults = fault.New(spec)
	o.PartialResults = o.PartialResults || o.Faults != nil
	config.SetDefault(o.Config)
	if o.Trace != "" || o.JSONL != "" || o.Manifest != "" {
		obs.Enable()
	}
	if o.Pprof != "" {
		ln, err := net.Listen("tcp", o.Pprof)
		if err != nil {
			return nil, nil, fmt.Errorf("cli: pprof listen: %w", err)
		}
		srv := &http.Server{}
		go srv.Serve(ln) //nolint:errcheck // best-effort debug endpoint
	}
	m := obs.NewManifest(tool)
	m.Workers = o.WorkerCount()
	env := make(map[string]string, len(knobs))
	for _, k := range knobs {
		if k.manifest != nil {
			env[k.env] = k.manifest(o)
		} else {
			env[k.env] = *k.field(o).(*string)
		}
	}
	m.SetKnobs(env)
	ctx, root := obs.Start(context.Background(), "run", obs.KV("tool", tool))
	return &Run{Opts: o, Manifest: m, root: root, start: time.Now()}, config.WithContext(ctx, o.Config), nil
}

// Finish prints the -metrics report to stderr, ends the root span and
// writes every requested sink. It returns the first write error; the
// command should report it and exit non-zero, since a missing trace
// the user asked for is a failure.
func (r *Run) Finish() error {
	o := r.Opts
	if o.Metrics {
		fmt.Fprintf(os.Stderr, "\nworkers: %d\n%s", o.WorkerCount(), obs.StageReport())
	}
	r.root.End()
	if o.Trace == "" && o.JSONL == "" && o.Manifest == "" {
		return nil
	}
	t := obs.Collect()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.Trace != "" {
		keep(obs.WriteFileChrome(o.Trace, t))
	}
	if o.JSONL != "" {
		keep(obs.WriteFileJSONL(o.JSONL, t))
	}
	if o.Manifest != "" {
		r.Manifest.Spans = len(t.Spans)
		r.Manifest.Dropped = t.Dropped
		r.Manifest.TotalWallMS = float64(time.Since(r.start).Nanoseconds()) / 1e6
		keep(r.Manifest.WriteFile(o.Manifest))
	}
	return firstErr
}

func positive(n int) string {
	if n > 0 {
		return strconv.Itoa(n)
	}
	return ""
}

func boolEnv(b bool) string {
	if b {
		return "1"
	}
	return ""
}
