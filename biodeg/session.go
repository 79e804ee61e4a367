package biodeg

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/uarch"
)

// Config is the session's runtime configuration: worker count, metrics
// reporting, library cache, resilience (fault injector, partial
// results) and checkpointing. The zero
// value means all defaults. The commands pass the Config their
// flags resolved to (internal/cli); library users set its fields.
type Config = config.Config

// Session is the context-first entry point to the reproduction: one
// Config that every method threads through the context it passes down.
// Two sessions with different configurations coexist in one process
// without touching shared mutable state.
//
// A Session is immutable after New and safe for concurrent use by any
// number of goroutines; the HTTP daemon (cmd/biodegd) serves all
// requests from one shared Session.
type Session struct {
	cfg Config

	// The checkpoint journal (Config.Checkpoint) opens lazily on the
	// session's first operation and stays open until Close.
	cpOnce    sync.Once
	cpJournal *checkpoint.Journal
	cpErr     error
}

// New builds a Session bound to cfg.
//
// Config.Checkpoint names a directory holding the session's crash-safe
// sweep journal (internal/checkpoint): every completed grid point and
// finished experiment commits a durable record, and a later session
// (or process) given the same directory resumes — journaled points are
// replayed bit-identically instead of recomputed. The journal is bound
// to the result-shaping knobs (fault spec, partial mode); a directory
// written under different knobs is rejected with a clear error rather
// than silently merged. Use one journal directory per
// concurrently-running process.
//
// Config.LibCache takes effect through the process default
// configuration: the characterized-library memo is process-wide
// (characterization is deterministic, so sessions share its results).
func New(cfg Config) *Session { return &Session{cfg: cfg} }

// FaultSpec is a parsed fault-injection plan (see ParseFaults and
// internal/fault for the spec syntax and fault model).
type FaultSpec = fault.Spec

// ParseFaults reads the -faults flag syntax, e.g.
// "seed=1,rate=0.1,kinds=error+latency,stages=depth-point".
func ParseFaults(s string) (FaultSpec, error) { return fault.Parse(s) }

// WithFaults builds the deterministic fault injector for spec, the
// value of Config.Faults (nil for a disabled spec). Chaos sweeps
// usually pair it with Config.PartialResults.
func WithFaults(spec FaultSpec) *fault.Injector { return fault.New(spec) }

// journal lazily opens the session's checkpoint journal — once, from
// the directory the config names. The journal header is bound to the
// knobs that shape results (fault spec, partial mode), so resuming
// under changed knobs fails loudly instead of merging incompatible
// records.
func (s *Session) journal(ctx context.Context) (*checkpoint.Journal, error) {
	if s.cfg.Checkpoint == "" {
		return nil, nil
	}
	s.cpOnce.Do(func() {
		meta := checkpoint.Meta{
			Tool:         "biodeg",
			Label:        "session",
			ConfigDigest: digest(s.cfg),
		}
		s.cpJournal, _, s.cpErr = checkpoint.Open(ctx, filepath.Join(s.cfg.Checkpoint, "journal.bdj"), meta)
	})
	return s.cpJournal, s.cpErr
}

// digest binds a session journal to the configuration knobs that shape
// result values: the fault spec and the partial-results mode. Worker
// count and cache directories do not change values and are not bound. The key names and value spellings are part of every
// journal header written so far; changing them orphans those journals.
func digest(cfg Config) string {
	return checkpoint.ConfigDigest(map[string]string{
		"faults":  cfg.Faults.Spec().String(),
		"partial": fmt.Sprintf("%t", cfg.PartialResults),
	})
}

// bind attaches the session's configuration (and journal, if any) to
// ctx; every public method funnels through it.
func (s *Session) bind(ctx context.Context) (context.Context, error) {
	ctx = config.WithContext(ctx, s.cfg)
	j, err := s.journal(ctx)
	if err != nil {
		return nil, err
	}
	if j != nil {
		ctx = runner.WithCheckpoint(ctx, j)
	}
	return ctx, nil
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

// ALUDepth pipelines the 32-bit complex ALU (CSA multiplier + stallable
// divider datapath) from 1 to maxStages, reproducing Figure 12. The
// sweep fans out on the session's worker pool and stops early when ctx
// is cancelled.
func (s *Session) ALUDepth(ctx context.Context, t *Technology, maxStages int) ([]ALUPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.ALUDepthSweep(ctx, t, maxStages, true)
}

// CoreDepth sweeps the 9-stage baseline core to maxDepth by repeatedly
// cutting the critical stage, reproducing Figure 11. Points carry
// per-benchmark IPC and performance.
func (s *Session) CoreDepth(ctx context.Context, t *Technology, minDepth, maxDepth int) ([]DepthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.CoreDepthSweep(ctx, t, minDepth, maxDepth, true)
}

// Widths sweeps the thirty superscalar width configurations
// (front-end 1-6 x back-end 3-7), reproducing Figures 13-14.
func (s *Session) Widths(ctx context.Context, t *Technology) ([]WidthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.WidthSweep(ctx, t)
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
)
