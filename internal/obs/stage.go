package obs

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Stage names used by the reproduction's hot paths. Free-form strings
// are equally valid; these constants just keep the spelling consistent
// across packages.
const (
	StageCharacterize = "characterize" // NLDM cell characterization
	StageSTA          = "sta"          // static timing of one netlist
	StagePipeline     = "pipeline"     // depth partitioning / core timing
	StageIPC          = "ipc"          // cycle-level benchmark simulation
	StageExperiment   = "experiment"   // one registry experiment

	// Checkpoint counters (internal/checkpoint, internal/runner): points
	// replayed from a journal instead of recomputed, points committed to
	// a journal, and journal loads.
	StageCheckpointSkipped = "checkpoint.skipped"
	StageCheckpointCommit  = "checkpoint.commit"
	StageCheckpointLoad    = "checkpoint.load"

	// SPICE convergence fallbacks (internal/spice): DC solves whose plain
	// Newton iteration failed and that fell back to gmin stepping, and
	// those that fell further back to source stepping. Nonzero counts
	// mark a run whose numerics degraded.
	StageSpiceGmin   = "spice.gmin_step"
	StageSpiceSource = "spice.source_step"

	// SPICE work counters (internal/spice): Newton iterations across all
	// DC and transient solves, and completed transient time steps. Their
	// ratio is the iterations a time step takes; a rise marks the solver
	// working harder for the same circuits.
	StageSpiceNewton   = "spice.newton_iter"
	StageSpiceTranStep = "spice.tran_step"

	// IPC work counter (internal/core): workloads run on the functional
	// ISA and recorded for replay. A process records each workload once,
	// so a count above the workload count marks recordings repeated.
	StageIPCRecord = "ipc.record"
)

// The two per-stage families on the process-default registry: every
// Stage span's End and every Add count into stageEvents; only spans
// time into stageDurations.
var (
	stageEvents = telemetry.Default().Counter("biodeg_stage_events_total",
		"Completed units of instrumented work per stage.", "stage")
	stageDurations = telemetry.Default().Histogram("biodeg_stage_duration_seconds",
		"Wall time of instrumented work per stage.",
		telemetry.DurationBuckets, "stage")
)

// observe records one finished Stage span: it bumps the stage counter
// and accumulates wall time into the histogram.
func observe(stage string, d time.Duration) {
	stageEvents.With(stage).Inc()
	stageDurations.With(stage).Observe(d.Seconds())
}

// Add bumps a stage's counter by n without timing, for counted events
// that have no meaningful duration (checkpoint replays, injected
// faults, engine errors, solver fallbacks).
func Add(stage string, n int64) {
	stageEvents.With(stage).Add(n)
}

// Count returns a stage's current cumulative count (0 when the stage
// was never recorded) — a cheap point read for status endpoints.
func Count(stage string) int64 {
	if c, ok := stageEvents.Get(stage); ok {
		return c.Value()
	}
	return 0
}

// stageSnapshot is one stage's totals at a point in time.
type stageSnapshot struct {
	stage   string
	count   int64
	total   time.Duration
	max     time.Duration
	buckets []int64 // per DurationBuckets decade, then +Inf; nil for untimed stages
}

// snapshots returns every recorded stage's totals, sorted by stage name.
func snapshots() []stageSnapshot {
	var out []stageSnapshot
	stageEvents.Range(func(labels []string, c *telemetry.Counter) {
		snap := stageSnapshot{stage: labels[0], count: c.Value()}
		if h, ok := stageDurations.Get(labels[0]); ok {
			snap.total = secondsToDuration(h.Sum())
			snap.max = secondsToDuration(h.Max())
			snap.buckets = h.Buckets()
		}
		out = append(out, snap)
	})
	return out // Range iterates sorted, so out is sorted by stage
}

// secondsToDuration converts the histogram's float seconds back to a
// Duration, rounding so short sums of exact millisecond observations
// survive the float64 round trip.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * 1e9))
}

// StageReport renders the recorded stages as an aligned text table
// with one histogram line per stage (the -metrics report and
// /metricsz?format=text), e.g.
//
//	stage         count    total      mean       max
//	sta              58    42.1s     726ms      2.1s   [1ms:3 10ms:12 ...]
func StageReport() string {
	snaps := snapshots()
	if len(snaps) == 0 {
		return "metrics: nothing recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s  histogram (>=bucket lower bound)\n",
		"stage", "count", "total", "mean", "max")
	for _, s := range snaps {
		mean := time.Duration(0)
		if s.count > 0 {
			mean = s.total / time.Duration(s.count)
		}
		var hist []string
		for i, c := range s.buckets {
			if c > 0 {
				hist = append(hist, fmt.Sprintf("%s:%d", bucketLabel(i), c))
			}
		}
		fmt.Fprintf(&b, "%-14s %8d %10s %10s %10s  [%s]\n",
			s.stage, s.count, round(s.total), round(mean), round(s.max),
			strings.Join(hist, " "))
	}
	return b.String()
}

// bucketLabel renders the lower bound of duration bucket i: bucket i
// counts observations in roughly [10^i us, 10^(i+1) us).
func bucketLabel(i int) string {
	switch {
	case i < 3:
		return fmt.Sprintf("%dus", pow10(i))
	case i < 6:
		return fmt.Sprintf("%dms", pow10(i-3))
	default:
		return fmt.Sprintf("%ds", pow10(i-6))
	}
}

func pow10(n int) int {
	v := 1
	for ; n > 0; n-- {
		v *= 10
	}
	return v
}

// round trims a duration for display.
func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
