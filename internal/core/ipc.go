package core

import (
	"context"
	"fmt"

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

// BenchIPCCtx runs (with caching) one workload through the cycle-level
// model and returns its statistics. A cache miss simulates under an
// "ipc" span (and metrics observation) parented to the first
// requester's span.
func BenchIPCCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	return ipcMemo.Do(ipcKey{bench, cfg}, func() (uarch.Stats, error) {
		return simulate(ctx, bench, cfg, recordOnce)
	})
}

// BenchIPCUncachedCtx records the workload and runs the full
// cycle-level simulation every call, bypassing both process-wide memos.
// The sweeps never want this; it exists for benchmarking the simulator
// itself (the layer ledger of bash bench/run.sh, see bench/README.md),
// where a memo hit would measure a map lookup instead of the model.
func BenchIPCUncachedCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	return simulate(ctx, bench, cfg, record)
}

// simulate replays the stream load returns for bench under one "ipc"
// span, so a recording is timed inside the simulation that waits on it.
func simulate(ctx context.Context, bench string, cfg uarch.Config, load func(string) (*uarch.Recorded, error)) (uarch.Stats, error) {
	_, sp := obs.Start(ctx, "ipc",
		obs.KV("bench", bench),
		obs.Int("fe", cfg.FrontWidth), obs.Int("be", cfg.BackWidth),
		obs.Stage(obs.StageIPC))
	defer sp.End()
	rec, err := load(bench)
	if err != nil {
		return uarch.Stats{}, err
	}
	return uarch.Run(rec, cfg), nil
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
