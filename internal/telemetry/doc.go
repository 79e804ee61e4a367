// Package telemetry is the reproduction's labeled metric registry:
// counters, gauges, and fixed-bucket histograms addressed by name plus
// a tuple of label values (stage, experiment, route, code, cache, ...),
// rendered on demand in the Prometheus text exposition format.
//
// It is the layer below the rest of the observability stack:
// internal/obs records every Stage span's count and wall time here
// (its human-readable per-stage report is a view over the same data),
// the HTTP server registers its RED metrics here, and biodegd serves
// the whole registry at GET /metricsz.
//
// # Concurrency contract
//
// Metric handles (*Counter, *Gauge, *Histogram) are safe for
// concurrent use and update pure atomics — no locks, consistent with
// the internal/obs span hot path. Resolving a handle from its vec
// (With) is a sync.Map load after the label tuple's first touch; hot
// loops should resolve once and keep the handle. Registering a family
// (Registry.Counter/Gauge/Histogram) takes a mutex and belongs in
// package var blocks, not per-event code. WritePrometheus and the
// Range iterators snapshot live atomics: a scrape concurrent with
// recording sees each series at some point during the scrape, which is
// all Prometheus asks.
//
// # Process default
//
// Default() is the process-wide registry every instrumented package
// records into. NewRegistry builds an independent one, which tests use
// to exercise the exposition in isolation.
package telemetry
