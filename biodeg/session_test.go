package biodeg

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func TestSessionBindCarriesConfig(t *testing.T) {
	s := New(Config{Workers: 4})
	ctx := mustBind(t, s)
	if got := runner.WorkersFor(ctx); got != 4 {
		t.Errorf("bound context worker count = %d, want 4", got)
	}
}

// TestSessionLogger proves log lines emitted under a span started from
// a session-bound context carry that span's span_id when the process
// logger is wrapped with obs.NewLogHandler.
func TestSessionLogger(t *testing.T) {
	obs.EnableCapacity(16)
	defer obs.Disable()
	var buf strings.Builder
	logger := slog.New(obs.NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	sctx, sp := obs.Start(mustBind(t, New(Config{Workers: 1})), "session.work")
	logger.InfoContext(sctx, "hello")
	sp.End()
	if !strings.Contains(buf.String(), fmt.Sprintf(`"span_id":%d`, sp.ID())) {
		t.Errorf("session log line lacks span_id %d: %s", sp.ID(), buf.String())
	}
}

// TestSessionPoolIsolation proves two sessions in one process run their
// sweeps on independently sized worker pools: a serial session never
// overlaps work units while a 4-worker session reaches 4-way
// concurrency, even when both run at the same time.
func TestSessionPoolIsolation(t *testing.T) {
	serial := New(Config{Workers: 1})
	wide := New(Config{Workers: 4})

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

func TestSessionRunExperimentHonorsContext(t *testing.T) {
	s := New(Config{Workers: 2})
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
	s := New(Config{Workers: 2})
	st, err := s.SimulateIPC(context.Background(), "dhrystone", DefaultCore())
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 || st.IPC > 1 {
		t.Errorf("scalar-core IPC = %v, want (0, 1]", st.IPC)
	}
}
