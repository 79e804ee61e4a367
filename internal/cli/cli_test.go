package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
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

// pinEnv clears every variable of the knob table for the test's
// duration, so neither the caller's environment nor another test leaks
// configuration in.
func pinEnv(t *testing.T) {
	t.Helper()
	for _, k := range knobs {
		t.Setenv(k.env, "")
		os.Unsetenv(k.env)
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

// start runs Start on o and finishes the run at test end.
func start(t *testing.T, o *Options) context.Context {
	t.Helper()
	run, ctx, err := o.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Finish() })
	return ctx
}

func TestFaultsImplyPartial(t *testing.T) {
	pinEnv(t)

	// Without -faults: no partial results, no injector.
	o := register(t)
	start(t, o)
	if o.PartialResults || o.Faults != nil {
		t.Errorf("quiet config = %+v, want zero resilience posture", o.Config)
	}

	// With -faults: partial results implied, and the live injector
	// lands in Config.Faults, on the process default and the run
	// context alike.
	o = register(t, "-faults", "seed=9,rate=0.5,stages=alu-point")
	ctx := start(t, o)
	if !o.PartialResults {
		t.Error("-faults should imply partial results")
	}
	if got := o.Faults.Spec().Seed; got != 9 {
		t.Errorf("injector seed = %d, want 9", got)
	}
	if config.Default().Faults != o.Faults || config.Get(ctx).Faults != o.Faults {
		t.Error("Start did not install the run's injector as default and on the context")
	}

	// -partial stands alone.
	o = register(t, "-partial")
	start(t, o)
	if !o.PartialResults || o.Faults != nil {
		t.Errorf("bare -partial config = %+v", o.Config)
	}
}

func TestBadFaultSpecFailsStart(t *testing.T) {
	pinEnv(t)
	o := register(t, "-faults", "rate=banana")
	if _, _, err := o.Start("test"); err == nil {
		t.Fatal("Start accepted an unparseable -faults spec")
	}
}

// TestEnvMetricsFalse: an env value is read by the flag's own parser,
// so "false" means off.
func TestEnvMetricsFalse(t *testing.T) {
	pinEnv(t)
	t.Setenv("BIODEG_METRICS", "false")
	if o := register(t); o.Metrics {
		t.Error("BIODEG_METRICS=false turned the report on")
	}
}

// TestEnvBadValueFailsStart: a value the flag parser rejects is an
// error naming the variable, not a silent fallback.
func TestEnvBadValueFailsStart(t *testing.T) {
	pinEnv(t)
	t.Setenv("BIODEG_WORKERS", "four")
	_, _, err := register(t).Start("test")
	if err == nil || !strings.Contains(err.Error(), "BIODEG_WORKERS") {
		t.Fatalf("Start with BIODEG_WORKERS=four = %v, want an error naming the variable", err)
	}
}

// TestFinishPrintsMetricsReport: -metrics prints the per-stage report
// to stderr once, from Finish; without it stderr stays silent.
func TestFinishPrintsMetricsReport(t *testing.T) {
	pinEnv(t)
	for _, on := range []bool{false, true} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stderr
		os.Stderr = f
		run, _, err := register(t, fmt.Sprintf("-metrics=%t", on), "-workers", "3").Start("test")
		if err == nil {
			err = run.Finish()
		}
		os.Stderr = saved
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if on {
			want = 1
		}
		if got := strings.Count(string(out), "\nworkers: 3\n"); got != want {
			t.Errorf("-metrics=%t: stderr holds %d reports:\n%s", on, got, out)
		}
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
	if o := register(t); o.Checkpoint != "" {
		t.Errorf("default Checkpoint = %q, want off", o.Checkpoint)
	}

	// Env provides the default, flag overrides it.
	t.Setenv("BIODEG_CHECKPOINT", "/tmp/env-ckpt")
	if o := register(t); o.Checkpoint != "/tmp/env-ckpt" {
		t.Errorf("env Checkpoint = %q, want /tmp/env-ckpt", o.Checkpoint)
	}
	o := register(t, "-checkpoint", "/tmp/flag-ckpt")
	if o.Checkpoint != "/tmp/flag-ckpt" {
		t.Errorf("flag Checkpoint = %q, want /tmp/flag-ckpt", o.Checkpoint)
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

// TestManifestKnobsPinned pins the manifest env block for a bare run
// and for a run with every common flag set.
func TestManifestKnobsPinned(t *testing.T) {
	pinEnv(t)
	old := slog.Default()
	t.Cleanup(func() { slog.SetDefault(old) })
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		name string
		args []string
		want map[string]string
	}{
		{"no flags", nil, map[string]string{
			"BIODEG_LOG_FORMAT": "text",
			"BIODEG_LOG_LEVEL":  "info",
		}},
		{"every flag", []string{
			"-workers", "3", "-metrics", "-libcache", path("libs"),
			"-trace", path("t.json"), "-jsonl", path("t.jsonl"), "-manifest", path("m.json"),
			"-pprof", "127.0.0.1:0", "-faults", "seed=2,rate=0.25,kinds=error",
			"-partial", "-checkpoint", path("ckpt"),
			"-log-format", "json", "-log-level", "debug",
		}, map[string]string{
			"BIODEG_WORKERS":     "3",
			"BIODEG_METRICS":     "1",
			"BIODEG_LIBCACHE":    path("libs"),
			"BIODEG_TRACE":       path("t.json"),
			"BIODEG_TRACE_JSONL": path("t.jsonl"),
			"BIODEG_MANIFEST":    path("m.json"),
			"BIODEG_PPROF":       "127.0.0.1:0",
			"BIODEG_FAULTS":      "seed=2,rate=0.25,kinds=error,latency=10ms",
			"BIODEG_PARTIAL":     "1",
			"BIODEG_CHECKPOINT":  path("ckpt"),
			"BIODEG_LOG_FORMAT":  "json",
			"BIODEG_LOG_LEVEL":   "debug",
		}},
	} {
		run, _, err := register(t, tc.args...).Start("test")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := run.Manifest.Env; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: manifest env =\n%v\nwant\n%v", tc.name, got, tc.want)
		}
	}
}

// TestCommonFlagSet pins the names Register defines: a flag added to or
// dropped from the common set is a user-visible change to every
// command's -h and to the BIODEG_* environment.
func TestCommonFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"checkpoint", "faults", "jsonl", "libcache", "log-format", "log-level", "manifest",
		"metrics", "partial", "pprof", "trace", "workers",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("common flags = %v\nwant %v", got, want)
	}
}
