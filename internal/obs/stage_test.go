package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// resetStages clears every recorded stage series on the process-default
// registry.
func resetStages() {
	stageEvents.Reset()
	stageDurations.Reset()
}

// exposition renders the process-default registry as Prometheus text.
func exposition(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := telemetry.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObserveAndReport pins the span->registry path: a Stage span's End
// lands in both stage families, Add counts without timing, Count reads
// the events family, and the text report keeps its columns.
func TestObserveAndReport(t *testing.T) {
	resetStages()
	if got := Count(StageSTA); got != 0 {
		t.Fatalf("Count of an unseen stage = %d, want 0", got)
	}
	_, sp := Start(context.Background(), "sta.run", Stage(StageSTA))
	sp.End()
	sp.End() // idempotent: still one observation
	Add(StageCheckpointSkipped, 3)

	if got := Count(StageSTA); got != 1 {
		t.Errorf("Count(sta) = %d after one span, want 1", got)
	}
	if got := Count(StageCheckpointSkipped); got != 3 {
		t.Errorf("Count(checkpoint.skipped) = %d after Add(3), want 3", got)
	}
	expo := exposition(t)
	for _, want := range []string{
		"# HELP biodeg_stage_events_total Completed units of instrumented work per stage.\n",
		"# HELP biodeg_stage_duration_seconds Wall time of instrumented work per stage.\n",
		`biodeg_stage_events_total{stage="sta"} 1` + "\n",
		`biodeg_stage_duration_seconds_count{stage="sta"} 1` + "\n",
		`biodeg_stage_events_total{stage="checkpoint.skipped"} 3` + "\n",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
	if strings.Contains(expo, `biodeg_stage_duration_seconds_count{stage="checkpoint.skipped"}`) {
		t.Errorf("Add must not time its stage:\n%s", expo)
	}

	// Exact arithmetic through the same recording path End uses.
	resetStages()
	observe(StageSTA, 5*time.Millisecond)
	observe(StageSTA, 70*time.Millisecond)
	observe(StageIPC, 2*time.Second)
	Add(StageCheckpointSkipped, 3)
	snaps := snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d stages, want 3", len(snaps))
	}
	// Sorted by name.
	if snaps[0].stage != StageCheckpointSkipped || snaps[1].stage != StageIPC || snaps[2].stage != StageSTA {
		t.Fatalf("order: %s, %s, %s", snaps[0].stage, snaps[1].stage, snaps[2].stage)
	}
	sta := snaps[2]
	if sta.count != 2 || sta.total != 75*time.Millisecond || sta.max != 70*time.Millisecond {
		t.Errorf("sta totals wrong: %+v", sta)
	}

	lines := strings.Split(strings.TrimSuffix(StageReport(), "\n"), "\n")
	if got := strings.Fields(lines[0]); strings.Join(got, " ") !=
		"stage count total mean max histogram (>=bucket lower bound)" {
		t.Errorf("report header = %q", lines[0])
	}
	rows := map[string][]string{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		rows[f[0]] = f
	}
	// The CI chaos job reads column 2 with awk '$1=="checkpoint.skipped"'.
	// It is counter-only, so its times read "-" and it has no histogram.
	if r := rows[StageCheckpointSkipped]; strings.Join(r, " ") != "checkpoint.skipped 3 - - -" {
		t.Errorf("checkpoint.skipped row = %q", r)
	}
	if r := rows[StageSTA]; len(r) != 7 || r[1] != "2" || r[2] != "75ms" || r[3] != "37.5ms" ||
		r[4] != "70ms" || r[5] != "[1ms:1" || r[6] != "10ms:1]" {
		t.Errorf("sta row = %q", r)
	}
	if r := rows[StageIPC]; len(r) != 6 || r[2] != "2s" || r[5] != "[1s:1]" {
		t.Errorf("ipc row = %q", r)
	}
}

// TestBucketIndex checks which report bucket a duration lands in:
// bucket i counts observations in roughly [10^i us, 10^(i+1) us), with
// everything past the last DurationBuckets bound in the overflow slot.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d     time.Duration
		want  int
		label string
	}{
		{500 * time.Nanosecond, 0, "1us"},
		{5 * time.Microsecond, 0, "1us"},
		{50 * time.Microsecond, 1, "10us"},
		{5 * time.Millisecond, 3, "1ms"},
		{5 * time.Second, 6, "1s"},
		{3 * time.Hour, len(telemetry.DurationBuckets), "1000s"},
	}
	for _, c := range cases {
		resetStages()
		observe(StageSTA, c.d)
		b := snapshots()[0].buckets
		if len(b) != len(telemetry.DurationBuckets)+1 || b[c.want] != 1 {
			t.Errorf("%v landed in buckets %v, want slot %d", c.d, b, c.want)
		}
		if got := bucketLabel(c.want); got != c.label {
			t.Errorf("bucketLabel(%d) = %q, want %q", c.want, got, c.label)
		}
		if rep := StageReport(); !strings.Contains(rep, "["+c.label+":1]") {
			t.Errorf("report for %v lacks [%s:1]:\n%s", c.d, c.label, rep)
		}
	}
}

// TestProgressHook pins what a progress reader sees through Count: a
// Stage span's End and an Add land in one cumulative stage count.
func TestProgressHook(t *testing.T) {
	resetStages()
	_, sp := Start(context.Background(), "partition", Stage(StagePipeline))
	sp.End()
	if got := Count(StagePipeline); got != 1 {
		t.Errorf("Count(pipeline) = %d after one span, want 1", got)
	}
	Add(StagePipeline, 2)
	if got := Count(StagePipeline); got != 3 {
		t.Errorf("Count(pipeline) = %d after Add(2), want 3", got)
	}
}

// TestProgressHookSurvivesReset pins the reset contract: a reset
// clears the stage series, and concurrent observers after it recreate
// the series with counts restarting from 1.
func TestProgressHookSurvivesReset(t *testing.T) {
	resetStages()
	observe(StagePipeline, time.Millisecond)
	if got := Count(StagePipeline); got != 1 {
		t.Fatalf("pre-reset Count(pipeline) = %d, want 1", got)
	}
	resetStages()
	if got := Count(StagePipeline); got != 0 {
		t.Fatalf("Count(pipeline) = %d right after reset, want 0", got)
	}
	// Concurrent observers after the reset keep the -race detector
	// honest about the recreated series.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(context.Background(), "partition", Stage(StagePipeline))
			sp.End()
		}()
	}
	wg.Wait()
	if got := Count(StagePipeline); got != 4 {
		t.Errorf("post-reset Count(pipeline) = %d, want 4 (counts restart after reset)", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	resetStages()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, sp := Start(context.Background(), "cell", Stage(StageCharacterize))
				sp.End()
				Add(StageCheckpointCommit, 1)
			}
		}()
	}
	wg.Wait()
	snaps := snapshots()
	if len(snaps) != 2 || snaps[0].count != 800 || snaps[1].count != 800 {
		t.Fatalf("snapshots = %+v, want two stages with count 800", snaps)
	}
	if h, _ := stageDurations.Get(StageCharacterize); h.Count() != 800 {
		t.Errorf("duration count = %d, want 800", h.Count())
	}
}

func TestEmptyReport(t *testing.T) {
	resetStages()
	if rep := StageReport(); !strings.Contains(rep, "nothing recorded") {
		t.Errorf("empty report = %q", rep)
	}
}
