package biodeg

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/runner/metrics"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/uarch"
)

// Session is the context-first entry point to the reproduction: a
// bundle of runtime options (worker count, metrics reporting, library
// cache, tracer) that every method threads through the context it
// passes down. Two sessions with different options coexist in one
// process without touching shared mutable state — Session replaces the
// BIODEG_* process-environment globals the package grew up with.
//
// A Session is immutable after New and safe for concurrent use by any
// number of goroutines; the HTTP daemon (cmd/biodegd) serves all
// requests from one shared Session.
//
// Options left unset inherit the process default configuration
// (installed by internal/cli from the command-line flags) at call
// time, so an optionless session follows the flags.
type Session struct {
	workers   *int
	metrics   *bool
	libCache  *string
	tracer    *obs.Tracer
	telemetry *telemetry.Registry
	logger    *slog.Logger

	// Resilience options (see WithFaults, WithPartialResults,
	// WithRetries, WithStageTimeout).
	inj          *fault.Injector
	partial      *bool
	retries      *int
	stageTimeout *time.Duration

	// Durability (see WithCheckpoint). The journal opens lazily on the
	// session's first operation and stays open until Close.
	checkpoint *string
	cpOnce     sync.Once
	cpJournal  *checkpoint.Journal
	cpErr      error

	// Sharding (see WithPeers, WithCoordinator, WithShardBatch,
	// WithLeaseTimeout, WithHedgeAfter). The coordinator builds lazily on
	// the first sharded sweep.
	peers        []string
	coordinator  *bool
	shardBatch   *int
	leaseTimeout *time.Duration
	hedgeAfter   *time.Duration
	coordOnce    sync.Once
	coord        *shard.Coordinator
}

// Option configures a Session at New time.
type Option func(*Session)

// WithWorkers fixes the session's worker-pool size for every sweep and
// experiment the session runs. n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Session) { s.workers = &n }
}

// WithMetrics sets whether the session considers the per-stage metrics
// report requested (MetricsEnabled). Recording is always on; this knob
// only drives report printing.
func WithMetrics(on bool) Option {
	return func(s *Session) { s.metrics = &on }
}

// WithLibCache names a directory persisting characterized libraries
// across processes. Note the characterized-library memo itself is
// process-wide (characterization is deterministic, so sessions share
// its results); this option matters for the session that triggers the
// first characterization.
func WithLibCache(dir string) Option {
	return func(s *Session) { s.libCache = &dir }
}

// Tracer is an independent span collector (see internal/obs): spans
// started under a session created WithTracer land in that tracer's
// buffer instead of the process-wide one.
type Tracer = obs.Tracer

// NewTracer returns a span collector for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer routes the session's spans into tr, so per-session traces
// can be collected (tr.Collect) and exported independently of the
// process-wide trace sinks.
func WithTracer(tr *Tracer) Option {
	return func(s *Session) { s.tracer = tr }
}

// Telemetry is an independent labeled metric registry (see
// internal/telemetry): counters, gauges, and histograms keyed by label
// sets, exposable in Prometheus text format via WritePrometheus.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metric registry for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry records the session's stage events and durations into
// reg in addition to the process-default registry, so one session's
// activity can be scraped or inspected in isolation (a multi-tenant
// daemon, an A/B sweep comparison).
func WithTelemetry(reg *Telemetry) Option {
	return func(s *Session) { s.telemetry = reg }
}

// WithLogger attaches l to every context the session's methods derive,
// so instrumented code logs through the session's logger (obs.LoggerFrom)
// instead of the process default. Lines still carry the span_id of the
// enclosing span when the handler is wrapped with obs.NewLogHandler.
func WithLogger(l *slog.Logger) Option {
	return func(s *Session) { s.logger = l }
}

// FaultSpec is a parsed fault-injection plan (see ParseFaults and
// internal/fault for the spec syntax and fault model).
type FaultSpec = fault.Spec

// ParseFaults reads the -faults flag syntax, e.g.
// "seed=1,rate=0.1,kinds=error+latency,stages=depth-point".
func ParseFaults(s string) (FaultSpec, error) { return fault.Parse(s) }

// WithFaults gives the session its own deterministic fault injector:
// every sweep the session runs draws injections from spec, independent
// of the process-wide -faults posture. A disabled spec (zero value)
// leaves the session following the process default. Chaos sweeps
// usually pair this with WithPartialResults(true) and WithRetries.
func WithFaults(spec FaultSpec) Option {
	return func(s *Session) { s.inj = fault.New(spec) }
}

// WithPartialResults makes the session's design-space sweeps annotate
// failed grid points (DepthPoint.Errors, the Err fields of ALUPoint and
// WidthPoint) and keep going instead of aborting on the first error.
func WithPartialResults(on bool) Option {
	return func(s *Session) { s.partial = &on }
}

// WithRetries gives every sweep task a per-task retry budget: a failed
// grid point is re-attempted up to n times with exponential backoff
// before it counts as failed. n <= 0 disables retrying.
func WithRetries(n int) Option {
	return func(s *Session) { s.retries = &n }
}

// WithStageTimeout bounds each task attempt (one grid point, one
// benchmark simulation) with its own deadline, so a wedged stage fails
// that attempt instead of pinning the sweep. d <= 0 means no deadline
// beyond the caller's context.
func WithStageTimeout(d time.Duration) Option {
	return func(s *Session) { s.stageTimeout = &d }
}

// WithCheckpoint names a directory holding the session's crash-safe
// sweep journal (internal/checkpoint): every completed grid point and
// finished experiment commits a durable record, and a later session
// (or process) given the same directory resumes — journaled points are
// replayed bit-identically instead of recomputed. The journal is bound
// to the session's result-shaping knobs (fault spec, partial mode); a
// directory written under different knobs is rejected with a clear
// error rather than silently merged. "" disables checkpointing. Use
// one journal directory per concurrently-running process.
func WithCheckpoint(dir string) Option {
	return func(s *Session) { s.checkpoint = &dir }
}

// WithPeers lists worker biodegd base URLs ("http://host:8080") the
// session's shard coordinator may lease sweep points to. Peers only
// matter under WithCoordinator(true); the coordinator always keeps an
// in-process loopback worker besides them, so a sweep completes
// (slowly) even with every peer down. Workers must run under the same
// result-shaping knobs (fault spec, partial mode) — a mismatched
// worker rejects its leases with a config-digest error.
func WithPeers(urls ...string) Option {
	return func(s *Session) { s.peers = append([]string(nil), urls...) }
}

// WithCoordinator routes the session's design-space sweeps through the
// shard coordinator: the grid is partitioned into point-leases
// dispatched across the loopback worker and the WithPeers workers,
// with lease-timeout re-dispatch, hedged retries, and per-peer circuit
// breakers. Merged tables are byte-identical to a local run.
func WithCoordinator(on bool) Option {
	return func(s *Session) { s.coordinator = &on }
}

// WithShardBatch sets the coordinator's points-per-lease batch size.
// n <= 0 means the shard package default. Smaller batches spread load
// and shrink the re-dispatch unit; larger ones amortize per-lease HTTP
// and journal overhead.
func WithShardBatch(n int) Option {
	return func(s *Session) { s.shardBatch = &n }
}

// WithLeaseTimeout bounds one dispatch of a shard lease; an expired
// lease is re-dispatched to another peer. d <= 0 means the shard
// package default.
func WithLeaseTimeout(d time.Duration) Option {
	return func(s *Session) { s.leaseTimeout = &d }
}

// WithHedgeAfter sets the coordinator's straggler window: a lease
// unanswered for d gets a duplicate dispatch on a second peer, first
// success wins. d == 0 means the shard package default; negative
// disables hedging.
func WithHedgeAfter(d time.Duration) Option {
	return func(s *Session) { s.hedgeAfter = &d }
}

// New builds a Session from the given options.
func New(opts ...Option) *Session {
	s := &Session{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// config resolves the session's effective configuration: explicit
// options over the process default, read at call time.
func (s *Session) config() config.Config {
	c := config.Default()
	if s.workers != nil {
		c.Workers = *s.workers
	}
	if s.metrics != nil {
		c.Metrics = *s.metrics
	}
	if s.libCache != nil {
		c.LibCache = *s.libCache
	}
	if s.partial != nil {
		c.PartialResults = *s.partial
	}
	if s.retries != nil {
		c.Retries = *s.retries
	}
	if s.stageTimeout != nil {
		c.StageTimeout = *s.stageTimeout
	}
	if s.inj != nil {
		c.Faults = s.inj.Spec().String()
	}
	if s.checkpoint != nil {
		c.Checkpoint = *s.checkpoint
	}
	if s.peers != nil {
		c.Peers = s.peers
	}
	if s.coordinator != nil {
		c.Coordinator = *s.coordinator
	}
	if s.shardBatch != nil {
		c.ShardBatch = *s.shardBatch
	}
	if s.leaseTimeout != nil {
		c.LeaseTimeout = *s.leaseTimeout
	}
	if s.hedgeAfter != nil {
		c.HedgeAfter = *s.hedgeAfter
	}
	return c
}

// journal lazily opens the session's checkpoint journal — once, from
// the directory the effective config names at first use. The journal
// header is bound to the knobs that shape results (fault spec, partial
// mode), so resuming under changed knobs fails loudly instead of
// merging incompatible records.
func (s *Session) journal(ctx context.Context) (*checkpoint.Journal, error) {
	cfg := s.config()
	if cfg.Checkpoint == "" {
		return nil, nil
	}
	s.cpOnce.Do(func() {
		// The digest is shard.Digest — the same binding shard leases carry
		// — so "safe to resume this journal" and "safe to merge that
		// worker's points" stay one predicate.
		meta := checkpoint.Meta{
			Tool:         "biodeg",
			Label:        "session",
			ConfigDigest: shard.Digest(cfg),
		}
		s.cpJournal, _, s.cpErr = checkpoint.Open(ctx, filepath.Join(cfg.Checkpoint, "journal.bdj"), meta)
	})
	return s.cpJournal, s.cpErr
}

// bind attaches the session's configuration (and tracer, injector,
// journal, if any) to ctx; every public method funnels through it. A
// checkpoint already on ctx (the daemon's per-job journals) wins over
// the session's own.
func (s *Session) bind(ctx context.Context) (context.Context, error) {
	ctx = config.WithContext(ctx, s.config())
	if s.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, s.tracer)
	}
	if s.telemetry != nil {
		ctx = telemetry.WithContext(ctx, s.telemetry)
	}
	if s.logger != nil {
		ctx = obs.ContextWithLogger(ctx, s.logger)
	}
	if s.inj != nil {
		ctx = fault.WithInjector(ctx, s.inj)
	}
	if runner.CheckpointFrom(ctx) == nil {
		j, err := s.journal(ctx)
		if err != nil {
			return nil, err
		}
		if j != nil {
			ctx = runner.WithCheckpoint(ctx, j)
		}
	}
	return ctx, nil
}

// CheckpointStats reports the session journal's activity so far (zero
// when the session has no checkpoint directory or has not yet run).
func (s *Session) CheckpointStats() checkpoint.Stats {
	if s.cpJournal == nil {
		return checkpoint.Stats{}
	}
	return s.cpJournal.Stats()
}

// Close releases the session's checkpoint journal, if one was opened.
// Committed records are already durable; Close only ends the session.
// A Session without a checkpoint needs no Close.
func (s *Session) Close() error {
	if s.cpJournal == nil {
		return nil
	}
	return s.cpJournal.Close()
}

// FaultCounters reports what the session's own injector has fired so
// far (zero counters when the session has no WithFaults injector and
// thus follows the process default).
func (s *Session) FaultCounters() fault.Counters { return s.inj.Snapshot() }

// Workers reports the worker-pool size the session's sweeps use.
func (s *Session) Workers() int { return s.config().WorkerCount() }

// MetricsEnabled reports whether the session asks for the per-stage
// wall-time report.
func (s *Session) MetricsEnabled() bool { return s.config().Metrics }

// MetricsReport renders the process-wide per-stage counters and
// wall-time histograms recorded so far.
func (s *Session) MetricsReport() string { return metrics.Report() }

// Tracer returns the session's tracer, or nil when the session traces
// into the process-wide buffer.
func (s *Session) Tracer() *Tracer { return s.tracer }

// Telemetry returns the session's metric registry, or nil when the
// session records only into the process default.
func (s *Session) Telemetry() *Telemetry { return s.telemetry }

// Logger returns the session's logger, or nil when the session logs
// through the process default.
func (s *Session) Logger() *slog.Logger { return s.logger }

// ALUDepth pipelines the 32-bit complex ALU (CSA multiplier + stallable
// divider datapath) from 1 to maxStages, reproducing Figure 12. The
// sweep fans out on the session's worker pool (or its shard coordinator
// under WithCoordinator) and stops early when ctx is cancelled.
func (s *Session) ALUDepth(ctx context.Context, t *Technology, maxStages int) ([]ALUPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.ALUDepthSweep(ctx, t, maxStages, true, s.evaluator(ctx))
}

// CoreDepth sweeps the 9-stage baseline core to maxDepth by repeatedly
// cutting the critical stage, reproducing Figure 11. Points carry
// per-benchmark IPC and performance.
func (s *Session) CoreDepth(ctx context.Context, t *Technology, minDepth, maxDepth int) ([]DepthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.CoreDepthSweep(ctx, t, minDepth, maxDepth, true, s.evaluator(ctx))
}

// Widths sweeps the thirty superscalar width configurations
// (front-end 1-6 x back-end 3-7), reproducing Figures 13-14.
func (s *Session) Widths(ctx context.Context, t *Technology) ([]WidthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.WidthSweep(ctx, t, s.evaluator(ctx))
}

// evaluator picks where a bound context's sweep points run: the shard
// coordinator when the configuration asks for one, else the worker pool.
func (s *Session) evaluator(ctx context.Context) core.Evaluator {
	if config.Get(ctx).Coordinator {
		return s.sharder().Evaluate
	}
	return core.EvalPool
}

// sharder lazily builds the session's shard coordinator: the loopback
// worker first, then one HTTP peer per WithPeers URL, with the
// session's batch/lease/hedge knobs frozen at first use (matching the
// Session's immutable-after-New contract).
func (s *Session) sharder() *shard.Coordinator {
	s.coordOnce.Do(func() {
		cfg := s.config()
		peers := []shard.Peer{shard.Local{}}
		for _, u := range cfg.Peers {
			peers = append(peers, shard.NewHTTPPeer(u, nil))
		}
		s.coord = shard.New(shard.Options{
			Batch:        cfg.ShardBatch,
			LeaseTimeout: cfg.LeaseTimeout,
			HedgeAfter:   cfg.HedgeAfter,
		}, peers...)
	})
	return s.coord
}

// ShardExec evaluates one shard lease in this process — the worker
// half of the coordinator/worker layer, served by biodegd at
// POST /v1/shards/exec. The leased points run on the session's worker
// pool under its full posture (faults, retries, checkpoint journal)
// with the same per-point keys a local sweep uses.
func (s *Session) ShardExec(ctx context.Context, req *ShardRequest) (*ShardResult, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return shard.Exec(ctx, req)
}

// ShardStatus reports the session coordinator's configuration, lease
// counters, and per-peer breaker state (GET /v1/shardz). A session not
// configured WithCoordinator(true) reports Enabled=false.
func (s *Session) ShardStatus() ShardStatus {
	if !s.config().Coordinator {
		return ShardStatus{}
	}
	return s.sharder().Status()
}

// SimulateIPC runs one benchmark through the cycle-level core model,
// verifying the workload's architectural result, and returns timing
// statistics (IPC, mispredicts, cache misses).
func (s *Session) SimulateIPC(ctx context.Context, bench string, cfg CoreConfig) (Stats, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return Stats{}, err
	}
	return core.BenchIPCCtx(ctx, bench, cfg)
}

// RunExperiment runs one experiment by ID ("fig3", "fig11", ...) under
// ctx: cancelling the context stops in-flight grid points.
func (s *Session) RunExperiment(ctx context.Context, id string) ([]*Table, error) {
	results, err := s.RunExperiments(ctx, id)
	if err != nil {
		return nil, err
	}
	return results[0].Tables, nil
}

// RunExperiments runs the named experiments concurrently on the
// session's worker pool (independent figures in parallel; shared heavy
// intermediates are deduplicated by the process-wide caches) and
// returns their results in the order the IDs were given. The first
// failure cancels the not-yet-started experiments.
func (s *Session) RunExperiments(ctx context.Context, ids ...string) ([]ExperimentResult, error) {
	exps := make([]*core.Experiment, len(ids))
	for i, id := range ids {
		if exps[i] = core.ExperimentByID(id); exps[i] == nil {
			return nil, fmt.Errorf("biodeg: unknown experiment %q", id)
		}
	}
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.RunExperiments(ctx, exps)
}

// RunAll runs the whole registry concurrently, in registry order.
func (s *Session) RunAll(ctx context.Context) ([]ExperimentResult, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.RunExperiments(ctx, core.Experiments())
}

// OnProgress installs fn as a process-wide progress hook, invoked after
// every completed unit of instrumented work with the stage name, the
// stage's cumulative count, and the unit's duration. Pass nil to remove
// the hook. The callback runs on worker goroutines: keep it fast and
// concurrency-safe. The hook is process-wide (a metrics-layer
// property), not per-session.
func (s *Session) OnProgress(fn func(stage string, count int64, d time.Duration)) {
	metrics.OnProgress(fn)
}

// Result point types of the session sweeps, re-exported so consumers
// (biodeg/api, the server, examples) need not import internal packages.
type (
	// ALUPoint is one depth of the Figure 12 ALU sweep.
	ALUPoint = pipeline.Point
	// DepthPoint is one depth of the Figure 11 core sweep.
	DepthPoint = core.DepthPoint
	// WidthPoint is one (front-end, back-end) width configuration.
	WidthPoint = core.WidthPoint
	// Stats is the cycle-level simulation statistics bundle.
	Stats = uarch.Stats

	// ShardRequest is one point-lease of a sweep grid (the body of
	// POST /v1/shards/exec); ShardResult is its evaluated points, and
	// ShardPoint one of them. ShardStatus is the coordinator's
	// introspection document (GET /v1/shardz).
	ShardRequest = shard.Request
	ShardResult  = shard.Result
	ShardPoint   = shard.PointResult
	ShardStatus  = shard.Status
)

// Shard error sentinels, re-exported for transports: a bad lease maps
// to HTTP 400, a config-digest mismatch to 409.
var (
	ErrShardBadRequest     = shard.ErrBadRequest
	ErrShardConfigMismatch = shard.ErrConfigMismatch
)
