// Package obs is the observability layer of the reproduction: a
// lightweight hierarchical span tracer with three sinks — a Chrome
// trace_event JSON exporter (viewable in chrome://tracing or Perfetto),
// a JSON Lines event log, and a per-invocation run manifest recording
// the exact configuration and result digests of a run — plus the
// per-stage metrics every span and counted event feeds.
//
// # Span model
//
// obs.Start(ctx, name, attrs...) opens a span parented to the span
// carried by ctx (if any) and returns a derived context plus the span;
// span.End() closes it. Spans record start/end time, parent id,
// goroutine id, and free-form key=value attributes. The reserved
// attribute obs.Stage(name) additionally records the span in two
// families of the process-default telemetry registry when it ends:
// biodeg_stage_events_total{stage} and
// biodeg_stage_duration_seconds{stage}. Stage metrics are therefore a
// consumer of the same span stream as the trace exporters, so
// counters, histograms, traces, and manifests always agree.
//
// # Stage metrics
//
// Add counts untimed events into the same events family
// (checkpoint.*, fault.<kind>, server.engine_error, and the
// spice.gmin_step / spice.source_step convergence fallbacks); Count
// reads one stage back. biodegd's /metricsz serves these counters, and
// they are its only progress view. StageReport renders the families as
// the plain-text table the commands print under -metrics and
// /metricsz?format=text serves. Recording is lock-free once a stage's
// series exists and is always on; only printing the report is
// optional.
//
// # Hot path
//
// The tracer has no locks. While tracing is disabled (the default),
// Start costs one atomic load plus one small allocation, and End feeds
// only the stage metrics. While enabled, each finished span claims a
// slot in a bounded preallocated buffer with one atomic add and
// publishes itself with one atomic pointer store; spans beyond the
// buffer's capacity increment a drop counter that every sink reports.
// Enabling is process-wide: Enable (or EnableCapacity) starts a fresh
// buffer, Collect snapshots it, and the Write* functions export it.
//
// # Instrumented flow
//
// internal/runner wraps every pool task in a "runner.task" span whose
// queue_wait_us attribute splits time-in-queue from execution (the span
// duration). internal/cells, internal/sta, internal/pipeline, and
// internal/core open spans for library characterization (one per cell),
// each STA run, each pipeline partitioning, each IPC simulation, each
// depth/width grid point, and each registry experiment. The cmd/
// binaries open a root span around the whole invocation, so a trace
// covers essentially all wall time with correct nesting:
// run → experiment → sweep → grid point → sta/pipeline/ipc.
//
// # Manifest
//
// NewManifest captures the Go runtime configuration and the command
// line; SetKnobs records the effective configuration knobs (keyed by
// their historical BIODEG_* spellings so manifests stay diffable);
// AddExperiment appends one experiment's wall time and SHA-256 digests
// of its rendered tables.
// Two runs with the same configuration produce byte-identical
// manifests apart from the *_wall_ms timing fields, making a manifest
// diff the cheapest possible regression check.
package obs
