package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// uarchConfig derives the cycle-level model's configuration from the
// widths and per-stage cut counts: front-end cuts lengthen the
// fetch-to-dispatch pipe (and thus the mispredict penalty), issue cuts
// break back-to-back wakeup, and regread/execute cuts add bypass
// latency. Writeback/retire cuts do not slow the steady-state dataflow.
func uarchConfig(fe, be int, cuts map[StageName]int) uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.FrontWidth = fe
	cfg.BackWidth = be
	if cuts != nil {
		cfg.FrontStages = cuts[StFetch] + cuts[StDecode] + cuts[StRename] + cuts[StDispatch]
		cfg.IssueStages = cuts[StIssue] - 1
		cfg.ExecStages = (cuts[StRegRead] - 1) + (cuts[StExecute] - 1)
	}
	return cfg
}

type ipcKey struct {
	bench string
	cfg   uarch.Config
}

// ipcMemo caches benchmark statistics per (benchmark, configuration)
// key: the depth and width sweeps re-request overlapping points from
// many workers, and distinct points must simulate in parallel instead
// of convoying on one package-level mutex.
var ipcMemo runner.Memo[ipcKey, uarch.Stats]

// traceMemo holds each workload's recorded stream, so a process runs a
// workload on the functional ISA once and every simulation replays it.
var traceMemo runner.Memo[string, *uarch.Recorded]

type lowerKey struct {
	bench string
	geom  uarch.Geometry
}

// lowerMemo holds each workload's stream lowered per predictor and
// cache geometry, so the predictor and caches run once per geometry and
// every configuration that shares it only replays the timing.
var lowerMemo runner.Memo[lowerKey, *uarch.Lowered]

// maxLowered caps lowerMemo's entries. A lowering keeps one bit per
// instruction (two with an icache), 18-135 KB per workload. The sweeps
// use one geometry and serve-mixed's traffic nine; past the cap a
// daemon asked for ever new geometries lowers them per request instead
// of holding each forever.
const maxLowered = 128

// sharedWidths is the process's record of uncontended runs for
// BenchIPCCtx.
var sharedWidths backWidths

// BenchIPCCtx runs (with caching) one workload through the cycle-level
// model and returns its statistics. A cache miss simulates under an
// "ipc" span (and metrics observation) parented to the first
// requester's span; when an earlier run at another back-end width has
// the same Stats, the span is marked shared and counts into ipc.shared.
func BenchIPCCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	return ipcMemo.Do(ipcKey{bench, cfg}, func() (uarch.Stats, error) {
		sp := startIPC(ctx, bench, cfg)
		defer sp.End()
		st, shared, err := sharedWidths.simulate(bench, cfg)
		if shared {
			sp.Set("shared", "true")
			obs.Add(obs.StageIPCShared, 1)
		}
		return st, err
	})
}

// BenchIPCUncachedCtx records and lowers the workload and replays it
// every call, bypassing every process-wide memo and the shared
// back-end widths. The sweeps never want this; it exists for
// benchmarking the simulator itself (the layer ledger of bash
// bench/run.sh, see bench/README.md), where a memo hit would measure a
// map lookup instead of the model, and as the independent reference
// the daemon's answers are checked against.
func BenchIPCUncachedCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	sp := startIPC(ctx, bench, cfg)
	defer sp.End()
	rec, err := record(bench)
	if err != nil {
		return uarch.Stats{}, err
	}
	st, _ := uarch.Replay(uarch.Lower(rec, cfg.Geometry()), cfg)
	return st, nil
}

// startIPC opens one simulation's "ipc" span, so a recording or a
// lowering is timed inside the simulation that waits on it.
func startIPC(ctx context.Context, bench string, cfg uarch.Config) *obs.Span {
	_, sp := obs.Start(ctx, "ipc",
		obs.KV("bench", bench),
		obs.Int("fe", cfg.FrontWidth), obs.Int("be", cfg.BackWidth),
		obs.Stage(obs.StageIPC))
	return sp
}

// backWidths keeps, per benchmark and configuration with BackWidth
// zeroed, the uncontended run with the smallest uarch.Replay minBack:
// every BackWidth at or above it has that run's Stats.
type backWidths struct {
	mu   sync.Mutex
	runs map[ipcKey]widthRun
}

type widthRun struct {
	minBack int
	st      uarch.Stats
}

// simulate returns bench's Stats under cfg, from a recorded run when one
// covers cfg's BackWidth (shared) and otherwise by replaying bench's
// lowered stream, recording the run when it was uncontended. No lock is
// held across the replay.
func (w *backWidths) simulate(bench string, cfg uarch.Config) (st uarch.Stats, shared bool, err error) {
	k := ipcKey{bench, cfg}
	k.cfg.BackWidth = 0
	w.mu.Lock()
	r, ok := w.runs[k]
	w.mu.Unlock()
	if ok && cfg.BackWidth >= r.minBack {
		return r.st, true, nil
	}
	low, err := lowerOnce(bench, cfg.Geometry())
	if err != nil {
		return uarch.Stats{}, false, err
	}
	st, minBack := uarch.Replay(low, cfg)
	if minBack > 0 {
		w.mu.Lock()
		if r, ok := w.runs[k]; !ok || minBack < r.minBack {
			if w.runs == nil {
				w.runs = make(map[ipcKey]widthRun)
			}
			w.runs[k] = widthRun{minBack, st}
		}
		w.mu.Unlock()
	}
	return st, false, nil
}

// lowerOnce returns bench's stream lowered for geometry g, lowering it
// on the first request for that pair.
func lowerOnce(bench string, g uarch.Geometry) (*uarch.Lowered, error) {
	rec, err := recordOnce(bench)
	if err != nil {
		return nil, err
	}
	k := lowerKey{bench, g}
	low, err := lowerMemo.Do(k, func() (*uarch.Lowered, error) { return uarch.Lower(rec, g), nil })
	if lowerMemo.Len() > maxLowered {
		lowerMemo.Forget(k)
	}
	return low, err
}

// recordOnce returns bench's stream, recording it on the process's first
// request; a failed recording is not kept, so the next request retries.
func recordOnce(bench string) (*uarch.Recorded, error) {
	return traceMemo.Do(bench, func() (*uarch.Recorded, error) { return record(bench) })
}

// record runs bench on the functional ISA, verifies its checksum and
// returns the stream it executed.
func record(bench string) (*uarch.Recorded, error) {
	w := workload.ByName(bench)
	if w == nil {
		return nil, fmt.Errorf("core: unknown benchmark %q", bench)
	}
	m, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	rec, err := uarch.Record(m, w.MaxInstr)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", bench, err)
	}
	if err := w.Verify(m); err != nil {
		return nil, err
	}
	obs.Add(obs.StageIPCRecord, 1)
	return rec, nil
}

// Benchmarks returns the benchmark names in reporting order.
func Benchmarks() []string {
	ws := workload.All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// MeanIPCCtx averages IPC over all benchmarks for one configuration
// (the metric behind Figure 13), parenting the per-benchmark
// simulations' spans to ctx.
func MeanIPCCtx(ctx context.Context, cfg uarch.Config) (float64, error) {
	var sum float64
	names := Benchmarks()
	for _, b := range names {
		st, err := BenchIPCCtx(ctx, b, cfg)
		if err != nil {
			return 0, err
		}
		sum += st.IPC
	}
	return sum / float64(len(names)), nil
}
