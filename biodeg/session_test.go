package biodeg

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runner"
)

// poolPeak runs n sleeping work units through the runner under ctx and
// returns the concurrency high-water mark the pool reached.
func poolPeak(t *testing.T, ctx context.Context, n int) int {
	t.Helper()
	var cur, peak atomic.Int64
	_, err := runner.Map(ctx, n, func(context.Context, int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return int(peak.Load())
}

// mustBind binds a session without a checkpoint journal, so bind cannot
// fail; safe from helper goroutines (reports via Errorf, never Fatal).
func mustBind(t *testing.T, s *Session) context.Context {
	t.Helper()
	ctx, err := s.bind(context.Background())
	if err != nil {
		t.Errorf("bind: %v", err)
		return context.Background()
	}
	return ctx
}

func TestSessionOptionResolution(t *testing.T) {
	old := config.Default()
	defer config.SetDefault(old)
	config.SetDefault(config.Config{Workers: 7, Metrics: true, LibCache: "/tmp/x"})

	// An optionless session follows the process default at call time.
	s := New()
	if got := s.Workers(); got != 7 {
		t.Errorf("default session workers = %d, want 7", got)
	}
	if !s.MetricsEnabled() {
		t.Error("default session should inherit Metrics=true")
	}

	// Explicit options override only the fields they set.
	s2 := New(WithWorkers(2), WithMetrics(false))
	if got := s2.Workers(); got != 2 {
		t.Errorf("WithWorkers(2) session workers = %d, want 2", got)
	}
	if s2.MetricsEnabled() {
		t.Error("WithMetrics(false) should win over the process default")
	}
	if got := s2.config().LibCache; got != "/tmp/x" {
		t.Errorf("unset LibCache should inherit the default, got %q", got)
	}

	// Changing the default later is visible to unset fields only.
	config.SetDefault(config.Config{Workers: 3})
	if got := s.Workers(); got != 3 {
		t.Errorf("optionless session should track the default, got %d", got)
	}
	if got := s2.Workers(); got != 2 {
		t.Errorf("explicit workers must stay pinned, got %d", got)
	}
}

func TestSessionBindCarriesConfigAndTracer(t *testing.T) {
	tr := NewTracer()
	s := New(WithWorkers(4), WithTracer(tr))
	ctx := mustBind(t, s)
	if got := runner.WorkersFor(ctx); got != 4 {
		t.Errorf("bound context worker count = %d, want 4", got)
	}
	if obs.TracerFromContext(ctx) != tr {
		t.Error("bound context should carry the session tracer")
	}
	if s.Tracer() != tr {
		t.Error("Tracer() should return the WithTracer value")
	}
	if New().Tracer() != nil {
		t.Error("untraced session Tracer() should be nil")
	}
}

// TestSessionTelemetryIsolation proves a WithTelemetry session records
// its stage activity into its own registry — in addition to the process
// default — while a plain session leaves that registry untouched.
func TestSessionTelemetryIsolation(t *testing.T) {
	reg := NewTelemetry()
	s := New(WithTelemetry(reg), WithWorkers(1))
	if s.Telemetry() != reg {
		t.Fatal("Telemetry() should return the WithTelemetry value")
	}
	if New().Telemetry() != nil {
		t.Fatal("plain session Telemetry() should be nil")
	}
	// An unlikely configuration, so the process-wide IPC memo cannot
	// have it cached from another test (a memo hit records no stage).
	cfg0 := DefaultCore()
	cfg0.FrontStages = 6
	cfg0.BackWidth = 5
	if _, err := s.SimulateIPC(context.Background(), "dhrystone", cfg0); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "biodeg_stage_events_total") {
		t.Errorf("session registry has no stage events after a simulation:\n%s", buf.String())
	}

	// The plain session must not write into reg. (Its activity still
	// lands in the process default registry.)
	fresh := NewTelemetry()
	plain := New(WithWorkers(1))
	cfg := DefaultCore()
	cfg.FrontStages = 7 // distinct key so the IPC memo cannot elide the run
	cfg.BackWidth = 5
	if _, err := plain.SimulateIPC(context.Background(), "dhrystone", cfg); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fresh.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "biodeg_stage_events_total{") {
		t.Errorf("unrelated registry gained series:\n%s", buf.String())
	}
}

// TestSessionLogger proves WithLogger travels through bind and that log
// lines emitted under a session span carry its span_id.
func TestSessionLogger(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(obs.NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	tr := NewTracer()
	s := New(WithLogger(logger), WithTracer(tr), WithWorkers(1))
	if s.Logger() != logger {
		t.Fatal("Logger() should return the WithLogger value")
	}
	if New().Logger() != nil {
		t.Fatal("plain session Logger() should be nil")
	}
	ctx := mustBind(t, s)
	if obs.LoggerFrom(ctx) != logger {
		t.Fatal("bound context should carry the session logger")
	}
	sctx, sp := obs.Start(ctx, "session.work")
	obs.LoggerFrom(sctx).InfoContext(sctx, "hello")
	sp.End()
	if !strings.Contains(buf.String(), `"span_id"`) {
		t.Errorf("session log line lacks span_id: %s", buf.String())
	}
}

// TestSessionPoolIsolation proves two sessions in one process run their
// sweeps on independently sized worker pools: a serial session never
// overlaps work units while a 4-worker session reaches 4-way
// concurrency, even when both run at the same time.
func TestSessionPoolIsolation(t *testing.T) {
	serial := New(WithWorkers(1))
	wide := New(WithWorkers(4))

	var wg sync.WaitGroup
	peaks := make([]int, 2)
	for i, s := range []*Session{serial, wide} {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			peaks[i] = poolPeak(t, mustBind(t, s), 16)
		}(i, s)
	}
	wg.Wait()

	if peaks[0] != 1 {
		t.Errorf("serial session reached concurrency %d, want 1", peaks[0])
	}
	if peaks[1] != 4 {
		t.Errorf("4-worker session reached concurrency %d, want 4", peaks[1])
	}
}

// TestSessionTracerIsolation checks spans land in the session's own
// tracer, not in the process-wide buffer or a sibling session's.
func TestSessionTracerIsolation(t *testing.T) {
	trA, trB := NewTracer(), NewTracer()
	a := New(WithTracer(trA))
	b := New(WithTracer(trB))

	_, sp := obs.Start(mustBind(t, a), "work-a")
	sp.End()
	_, sp = obs.Start(mustBind(t, b), "work-b")
	sp.End()

	ta, tb := trA.Collect(), trB.Collect()
	if len(ta.Spans) != 1 || ta.Spans[0].Name != "work-a" {
		t.Errorf("tracer A spans = %+v, want exactly work-a", ta.Spans)
	}
	if len(tb.Spans) != 1 || tb.Spans[0].Name != "work-b" {
		t.Errorf("tracer B spans = %+v, want exactly work-b", tb.Spans)
	}
}

func TestSessionRunExperimentHonorsContext(t *testing.T) {
	s := New(WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunExperiment(ctx, "fig3"); err == nil {
		t.Fatal("RunExperiment with a cancelled context should fail")
	}
	if _, err := s.RunExperiment(context.Background(), "nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestSessionSimulateIPC(t *testing.T) {
	s := New(WithWorkers(2))
	st, err := s.SimulateIPC(context.Background(), "dhrystone", DefaultCore())
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 || st.IPC > 1 {
		t.Errorf("scalar-core IPC = %v, want (0, 1]", st.IPC)
	}
}
