// Package cli is the shared flag surface of the reproduction's
// commands. Every knob is a flag whose default comes from the matching
// BIODEG_* environment variable, so precedence is flag > env > built-in
// default. This package is the only place the BIODEG_* environment is
// read: Options.Start installs the effective values as the process
// default configuration (internal/config), so the internal packages —
// and an optionless biodeg.Session — observe the flags without ever
// touching the environment themselves. Commands that want non-default
// behavior build an explicit biodeg.Session from the parsed Options
// instead.
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
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Options is the parsed common flag set.
type Options struct {
	Workers  int    // -workers  / BIODEG_WORKERS
	Metrics  bool   // -metrics  / BIODEG_METRICS
	LibCache string // -libcache / BIODEG_LIBCACHE
	Trace    string // -trace    / BIODEG_TRACE
	JSONL    string // -jsonl    / BIODEG_TRACE_JSONL
	Manifest string // -manifest / BIODEG_MANIFEST
	Pprof    string // -pprof    / BIODEG_PPROF

	// Resilience flags.
	Faults       string        // -faults        / BIODEG_FAULTS
	Retries      int           // -retries       / BIODEG_RETRIES (-1 = auto)
	StageTimeout time.Duration // -stage-timeout / BIODEG_STAGE_TIMEOUT
	Partial      bool          // -partial       / BIODEG_PARTIAL

	// Durability flag.
	Checkpoint string // -checkpoint / BIODEG_CHECKPOINT

	// Sharding flags (see internal/shard; biodegd adds -coordinator).
	Peers        string        // -peers         / BIODEG_PEERS (comma-separated URLs)
	ShardBatch   int           // -shard-batch   / BIODEG_SHARD_BATCH
	LeaseTimeout time.Duration // -lease-timeout / BIODEG_LEASE_TIMEOUT
	HedgeAfter   time.Duration // -hedge-after   / BIODEG_HEDGE_AFTER

	// Logging flags.
	LogFormat string // -log-format / BIODEG_LOG_FORMAT (text|json)
	LogLevel  string // -log-level  / BIODEG_LOG_LEVEL  (debug|info|warn|error)
}

// AutoRetries is the retry budget -retries=-1 resolves to when fault
// injection is on (a 10% error rate with two retries leaves roughly a
// 0.1% per-point failure probability — visible but not disruptive).
const AutoRetries = 2

// envBool parses a boolean environment variable: set and not "0" is true.
func envBool(key string) bool {
	v := os.Getenv(key)
	return v != "" && v != "0"
}

// envInt returns the env var as a positive integer, else def.
func envInt(key string, def int) int {
	if s := os.Getenv(key); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// envDuration returns the env var as a duration, else def.
func envDuration(key string, def time.Duration) time.Duration {
	if s := os.Getenv(key); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			return d
		}
	}
	return def
}

// Register installs the common flags on fs with env-derived defaults
// and returns the Options the parsed values land in. Call fs.Parse (or
// flag.Parse for the default set), then Options.Start.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.IntVar(&o.Workers, "workers", envInt("BIODEG_WORKERS", 0),
		"worker-pool size, 0 = GOMAXPROCS (env BIODEG_WORKERS)")
	fs.BoolVar(&o.Metrics, "metrics", envBool("BIODEG_METRICS"),
		"print the per-stage wall-time report to stderr (env BIODEG_METRICS)")
	fs.StringVar(&o.LibCache, "libcache", os.Getenv("BIODEG_LIBCACHE"),
		"directory caching characterized libraries across runs (env BIODEG_LIBCACHE)")
	fs.StringVar(&o.Trace, "trace", os.Getenv("BIODEG_TRACE"),
		"write a Chrome trace_event JSON file for chrome://tracing or Perfetto (env BIODEG_TRACE)")
	fs.StringVar(&o.JSONL, "jsonl", os.Getenv("BIODEG_TRACE_JSONL"),
		"write the span stream as JSON Lines (env BIODEG_TRACE_JSONL)")
	fs.StringVar(&o.Manifest, "manifest", os.Getenv("BIODEG_MANIFEST"),
		"write a run manifest: environment, knobs, per-experiment wall time, table digests (env BIODEG_MANIFEST)")
	fs.StringVar(&o.Pprof, "pprof", os.Getenv("BIODEG_PPROF"),
		"serve net/http/pprof on this address, e.g. localhost:6060 (env BIODEG_PPROF)")
	fs.StringVar(&o.Faults, "faults", os.Getenv("BIODEG_FAULTS"),
		"inject deterministic faults, e.g. seed=1,rate=0.1,kinds=error+latency,stages=depth-point (env BIODEG_FAULTS)")
	fs.IntVar(&o.Retries, "retries", envInt("BIODEG_RETRIES", -1),
		"per-task retry budget; -1 = auto (2 with -faults, else 0) (env BIODEG_RETRIES)")
	fs.DurationVar(&o.StageTimeout, "stage-timeout", envDuration("BIODEG_STAGE_TIMEOUT", 0),
		"per-attempt deadline for each sweep task, 0 = none (env BIODEG_STAGE_TIMEOUT)")
	fs.BoolVar(&o.Partial, "partial", envBool("BIODEG_PARTIAL"),
		"annotate failed grid points and keep sweeping instead of aborting; implied by -faults (env BIODEG_PARTIAL)")
	fs.StringVar(&o.Checkpoint, "checkpoint", os.Getenv("BIODEG_CHECKPOINT"),
		"directory holding the crash-safe sweep journal; a rerun with the same directory resumes, skipping journaled points (env BIODEG_CHECKPOINT)")
	fs.StringVar(&o.Peers, "peers", os.Getenv("BIODEG_PEERS"),
		"comma-separated worker biodegd base URLs for sharded sweeps, e.g. http://w1:8080,http://w2:8080 (env BIODEG_PEERS)")
	fs.IntVar(&o.ShardBatch, "shard-batch", envInt("BIODEG_SHARD_BATCH", 0),
		"sweep points per shard lease, 0 = default (env BIODEG_SHARD_BATCH)")
	fs.DurationVar(&o.LeaseTimeout, "lease-timeout", envDuration("BIODEG_LEASE_TIMEOUT", 0),
		"time bound on one shard lease dispatch before re-dispatch, 0 = default (env BIODEG_LEASE_TIMEOUT)")
	fs.DurationVar(&o.HedgeAfter, "hedge-after", envDuration("BIODEG_HEDGE_AFTER", 0),
		"straggler window before a duplicate lease dispatch, 0 = default, negative = off (env BIODEG_HEDGE_AFTER)")
	fs.StringVar(&o.LogFormat, "log-format", envOr("BIODEG_LOG_FORMAT", "text"),
		"structured log encoding: text or json (env BIODEG_LOG_FORMAT)")
	fs.StringVar(&o.LogLevel, "log-level", envOr("BIODEG_LOG_LEVEL", "info"),
		"minimum log level: debug, info, warn, or error (env BIODEG_LOG_LEVEL)")
	return o
}

// envOr returns the env var if set, else def.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
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

// Config returns the runtime configuration the parsed flags describe.
// An unparseable -faults spec is treated as disabled here; Start is
// where it becomes a hard error.
func (o *Options) Config() config.Config {
	spec, _ := fault.Parse(o.Faults)
	return o.configWith(spec)
}

// configWith assembles the configuration given the parsed fault spec.
// -retries=-1 resolves to AutoRetries under injection (a chaos run
// should demonstrate recovery, not just failure) and 0 otherwise;
// partial results are implied by -faults so a bare chaos replicate
// completes with annotations instead of dying on the first fault.
func (o *Options) configWith(spec fault.Spec) config.Config {
	retries := o.Retries
	if retries < 0 {
		retries = 0
		if spec.Enabled() {
			retries = AutoRetries
		}
	}
	return config.Config{
		Workers:        o.Workers,
		Metrics:        o.Metrics,
		LibCache:       o.LibCache,
		Retries:        retries,
		StageTimeout:   o.StageTimeout,
		PartialResults: o.Partial || spec.Enabled(),
		Faults:         spec.String(),
		Checkpoint:     o.Checkpoint,
		Peers:          splitPeers(o.Peers),
		ShardBatch:     o.ShardBatch,
		LeaseTimeout:   o.LeaseTimeout,
		HedgeAfter:     o.HedgeAfter,
	}
}

// splitPeers parses the comma-separated -peers value, dropping empty
// elements so trailing commas and a blank flag are both harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// Start applies the parsed options — installing them as the process
// default configuration, enabling span tracing if any sink wants it,
// and starting the pprof server — and opens the run's root span. It
// returns the Run and a context carrying the root span and the
// effective configuration.
func (o *Options) Start(tool string) (*Run, context.Context, error) {
	// Install the effective configuration as the process default so
	// code paths without a context (lazy technology characterization,
	// an optionless session) observe the flags too.
	if err := o.setupLogging(); err != nil {
		return nil, nil, err
	}
	spec, err := fault.Parse(o.Faults)
	if err != nil {
		return nil, nil, fmt.Errorf("cli: -faults: %w", err)
	}
	cfg := o.configWith(spec)
	config.SetDefault(cfg)
	fault.SetDefault(fault.New(spec))
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
	m.Workers = cfg.WorkerCount()
	m.SetKnobs(map[string]string{
		"BIODEG_WORKERS":     positive(o.Workers),
		"BIODEG_METRICS":     boolEnv(o.Metrics),
		"BIODEG_LIBCACHE":    o.LibCache,
		"BIODEG_TRACE":       o.Trace,
		"BIODEG_TRACE_JSONL": o.JSONL,
		"BIODEG_MANIFEST":    o.Manifest,
		"BIODEG_PPROF":       o.Pprof,
		"BIODEG_FAULTS":      cfg.Faults,
		"BIODEG_RETRIES":     positive(cfg.Retries),
		"BIODEG_STAGE_TIMEOUT": func() string {
			if cfg.StageTimeout > 0 {
				return cfg.StageTimeout.String()
			}
			return ""
		}(),
		"BIODEG_PARTIAL":     boolEnv(cfg.PartialResults),
		"BIODEG_CHECKPOINT":  cfg.Checkpoint,
		"BIODEG_PEERS":       strings.Join(cfg.Peers, ","),
		"BIODEG_SHARD_BATCH": positive(cfg.ShardBatch),
		"BIODEG_LEASE_TIMEOUT": func() string {
			if cfg.LeaseTimeout > 0 {
				return cfg.LeaseTimeout.String()
			}
			return ""
		}(),
		"BIODEG_HEDGE_AFTER": func() string {
			if cfg.HedgeAfter != 0 {
				return cfg.HedgeAfter.String()
			}
			return ""
		}(),
		"BIODEG_LOG_FORMAT": o.LogFormat,
		"BIODEG_LOG_LEVEL":  o.LogLevel,
	})
	ctx, root := obs.Start(context.Background(), "run", obs.KV("tool", tool))
	return &Run{Opts: o, Manifest: m, root: root, start: time.Now()}, config.WithContext(ctx, cfg), nil
}

// Finish ends the root span and writes every requested sink. It
// returns the first write error; the command should report it and exit
// non-zero, since a missing trace the user asked for is a failure.
func (r *Run) Finish() error {
	r.root.End()
	o := r.Opts
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
