package cli

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
)

// register parses args against a fresh flag set.
func register(t *testing.T, args ...string) *Options {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// pinEnv registers cleanup for every env var Start republishes, so
// tests cannot leak configuration into each other.
func pinEnv(t *testing.T) {
	t.Helper()
	for _, k := range []string{
		"BIODEG_WORKERS", "BIODEG_METRICS", "BIODEG_LIBCACHE",
		"BIODEG_TRACE", "BIODEG_TRACE_JSONL", "BIODEG_MANIFEST", "BIODEG_PPROF",
		"BIODEG_FAULTS", "BIODEG_RETRIES", "BIODEG_STAGE_TIMEOUT", "BIODEG_PARTIAL",
		"BIODEG_CHECKPOINT",
	} {
		t.Setenv(k, os.Getenv(k))
		os.Unsetenv(k)
	}
	t.Cleanup(obs.Disable)
	t.Cleanup(func() { config.SetDefault(config.Config{}) })
}

func TestEnvProvidesDefaults(t *testing.T) {
	pinEnv(t)
	t.Setenv("BIODEG_WORKERS", "5")
	t.Setenv("BIODEG_METRICS", "1")
	t.Setenv("BIODEG_LIBCACHE", "/tmp/libs")
	o := register(t)
	if o.Workers != 5 || !o.Metrics || o.LibCache != "/tmp/libs" {
		t.Errorf("env defaults not picked up: %+v", o)
	}
}

func TestFlagsOverrideEnv(t *testing.T) {
	pinEnv(t)
	t.Setenv("BIODEG_WORKERS", "5")
	t.Setenv("BIODEG_METRICS", "1")
	o := register(t, "-workers", "2", "-metrics=false")
	if o.Workers != 2 || o.Metrics {
		t.Errorf("flags should beat env: %+v", o)
	}
	run, ctx, err := o.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Finish()
	// Start installs the effective values as the process default
	// configuration (it no longer republishes them into the env).
	if got := config.Default().Workers; got != 2 {
		t.Errorf("default config workers = %d after Start, want 2", got)
	}
	if config.Default().Metrics {
		t.Error("metrics should be off after Start with -metrics=false")
	}
	if got := config.Get(ctx).Workers; got != 2 {
		t.Errorf("Start context carries workers = %d, want 2", got)
	}
	if got := os.Getenv("BIODEG_WORKERS"); got != "5" {
		t.Errorf("BIODEG_WORKERS = %q after Start; Start must not touch the env", got)
	}
	if run.Manifest.Workers != 2 {
		t.Errorf("manifest workers = %d, want 2", run.Manifest.Workers)
	}
	if run.Manifest.Env["BIODEG_WORKERS"] != "2" {
		t.Errorf("manifest knobs = %+v, want BIODEG_WORKERS=2", run.Manifest.Env)
	}
}

func TestStartEnablesSinksAndFinishWrites(t *testing.T) {
	pinEnv(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	manifestPath := filepath.Join(dir, "m.json")
	o := register(t, "-trace", tracePath, "-manifest", manifestPath)
	run, ctx, err := o.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Fatal("tracing should be enabled when -trace is set")
	}
	if obs.FromContext(ctx) == nil {
		t.Fatal("Start context should carry the root span")
	}
	_, sp := obs.Start(ctx, "unit")
	sp.End()
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace file not written: %v", err)
	}
	m, err := obs.ReadManifest(manifestPath)
	if err != nil {
		t.Fatalf("manifest not readable: %v", err)
	}
	if m.Tool != "test" || m.Spans < 2 {
		t.Errorf("manifest = tool %q, %d spans; want test, >=2", m.Tool, m.Spans)
	}
}

func TestFaultsImplyPartialAndAutoRetries(t *testing.T) {
	pinEnv(t)

	// Without -faults: no retries, no partial results, empty spec.
	cfg := register(t).Config()
	if cfg.Retries != 0 || cfg.PartialResults || cfg.Faults != "" {
		t.Errorf("quiet config = %+v, want zero resilience posture", cfg)
	}

	// With -faults: partial results implied, -retries=-1 resolves to
	// AutoRetries, and the canonical spec lands in Config.Faults.
	o := register(t, "-faults", "seed=1,rate=0.1,kinds=error")
	cfg = o.Config()
	if !cfg.PartialResults {
		t.Error("-faults should imply partial results")
	}
	if cfg.Retries != AutoRetries {
		t.Errorf("retries = %d under -faults, want auto %d", cfg.Retries, AutoRetries)
	}
	if cfg.Faults == "" {
		t.Error("Config.Faults empty despite -faults")
	}

	// Explicit -retries beats the auto default; -partial stands alone.
	cfg = register(t, "-faults", "seed=1,rate=0.1", "-retries", "7").Config()
	if cfg.Retries != 7 {
		t.Errorf("explicit retries = %d, want 7", cfg.Retries)
	}
	cfg = register(t, "-partial").Config()
	if !cfg.PartialResults || cfg.Retries != 0 {
		t.Errorf("bare -partial config = %+v", cfg)
	}

	// Start installs the injector as the process default.
	run, _, err := register(t, "-faults", "seed=9,rate=0.5,stages=alu-point").Start("test")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Finish()
	t.Cleanup(func() { fault.SetDefault(nil) })
	inj := fault.Default()
	if inj == nil {
		t.Fatal("Start did not install a default injector")
	}
	if got := inj.Spec().Seed; got != 9 {
		t.Errorf("default injector seed = %d, want 9", got)
	}
	if run.Manifest.Env["BIODEG_FAULTS"] == "" {
		t.Errorf("manifest knobs missing BIODEG_FAULTS: %+v", run.Manifest.Env)
	}
}

func TestBadFaultSpecFailsStart(t *testing.T) {
	pinEnv(t)
	o := register(t, "-faults", "rate=banana")
	if _, _, err := o.Start("test"); err == nil {
		t.Fatal("Start accepted an unparseable -faults spec")
	}
	// Config (pre-Start, e.g. for display) degrades to disabled instead
	// of panicking.
	if cfg := o.Config(); cfg.Faults != "" || cfg.PartialResults {
		t.Errorf("bad-spec Config = %+v, want disabled", cfg)
	}
}

func TestNoSinksMeansNoTracing(t *testing.T) {
	pinEnv(t)
	o := register(t)
	run, ctx, err := o.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("tracing should stay off without trace/jsonl/manifest flags")
	}
	if obs.FromContext(ctx) != nil {
		t.Error("disabled run context should carry no span")
	}
	if err := run.Finish(); err != nil {
		t.Errorf("Finish with no sinks: %v", err)
	}
}

func TestCheckpointFlagAndEnv(t *testing.T) {
	pinEnv(t)

	// Default: checkpointing off.
	if cfg := register(t).Config(); cfg.Checkpoint != "" {
		t.Errorf("default Checkpoint = %q, want off", cfg.Checkpoint)
	}

	// Env provides the default, flag overrides it.
	t.Setenv("BIODEG_CHECKPOINT", "/tmp/env-ckpt")
	if cfg := register(t).Config(); cfg.Checkpoint != "/tmp/env-ckpt" {
		t.Errorf("env Checkpoint = %q, want /tmp/env-ckpt", cfg.Checkpoint)
	}
	o := register(t, "-checkpoint", "/tmp/flag-ckpt")
	if cfg := o.Config(); cfg.Checkpoint != "/tmp/flag-ckpt" {
		t.Errorf("flag Checkpoint = %q, want /tmp/flag-ckpt", cfg.Checkpoint)
	}

	// Start installs it as the process default and records it in the
	// manifest knobs, so the package-default session resumes too.
	run, ctx, err := o.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Finish()
	if got := config.Default().Checkpoint; got != "/tmp/flag-ckpt" {
		t.Errorf("default config Checkpoint = %q after Start", got)
	}
	if got := config.Get(ctx).Checkpoint; got != "/tmp/flag-ckpt" {
		t.Errorf("Start context Checkpoint = %q", got)
	}
	if got := run.Manifest.Env["BIODEG_CHECKPOINT"]; got != "/tmp/flag-ckpt" {
		t.Errorf("manifest knobs BIODEG_CHECKPOINT = %q", got)
	}
}
