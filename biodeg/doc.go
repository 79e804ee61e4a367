// Package biodeg is the public API of the reproduction of
// "Architectural Tradeoffs for Biodegradable Computing" (MICRO-50,
// 2017): a design-space explorer for processor cores built from organic
// (pentacene OTFT) versus silicon standard cells.
//
// The typical flow mirrors the paper's (Figure 10):
//
//	s := biodeg.New(biodeg.Config{})     // a Session binds one Config
//	org := biodeg.Organic()              // characterized technology
//	inv := biodeg.InverterDC(biodeg.PseudoE, 5, -15)  // cell-level DC analysis
//	alu := s.ALUDepth(ctx, org, 30)      // Fig. 12 sweep
//	core := s.CoreDepth(ctx, org, 9, 15) // Fig. 11 sweep
//	width := s.Widths(ctx, org)          // Figs. 13-14 sweep
//	tables := s.RunExperiment(ctx, "fig12")  // any paper artifact
//
// Concurrency and caching contract: every sweep and experiment is safe
// for concurrent use. Heavy artifacts (cell characterization, stage
// synthesis, IPC runs) are cached process-wide in per-key singleflight
// caches, so repeated or concurrent calls are cheap and never convoy on
// a global lock.
//
// The context-first entry point is Session, built from one Config value
// whose zero value means all defaults: New(Config{Workers: 8,
// Checkpoint: dir}); the commands pass the Config their flags resolved
// to. Every sweep and experiment is a Session method taking a context
// for cancellation; the sweep fans out over the session's worker pool,
// and parallel results are ordered by design point — bit-identical to
// a serial run. Two sessions with different worker counts coexist in
// one process; the biodegd daemon serves all its HTTP traffic from one
// shared Session. Session.RunExperiments executes independent paper
// figures concurrently.
//
// Observability: Session methods parent their spans (internal/obs) to
// the span carried by ctx, so a tracing run shows the full
// run > experiment > sweep > grid-point > sta/ipc tree. Spans, stage
// metrics and logs are process-wide: one trace buffer (obs.Enable),
// one registry (the /metricsz exposition) and slog.Default(). The
// commands expose the sinks as flags (-trace, -jsonl, -manifest,
// -pprof, each defaulting from the matching BIODEG_* environment
// variable — the flag layer, internal/cli, is the only environment
// reader — and -metrics, whose per-stage report prints when the run
// finishes);
// RecordResults fills a run manifest with per-experiment wall times
// and table digests for reproducibility diffing.
package biodeg
