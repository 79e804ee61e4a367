package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload once at reduced size (the replicate
// workloads on fig3 and fig8 only, serve-mixed for 2 s), then the traced
// pass, and asserts that each run reports exactly the metrics
// BENCHMARK.json names, with their units, and no failures. It builds the
// repository's commands and takes about a minute, with or without
// -short.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	e, err := newEnv(ctx, "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e2e, layer := benchmarkMetrics(t)
	o := options{seed: 1, window: 2 * time.Second, only: []string{"fig3", "fig8"}}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runAndCheck(t, ctx, e, o, w.run, endToEnd, e2e)
		})
	}
	t.Run("trace", func(t *testing.T) {
		runAndCheck(t, ctx, e, o, tracePass, perLayer, layer)
	})
}

// benchmarkMetrics reads the end-to-end and per-layer metric units of
// BENCHMARK.json, keyed by name.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, x := range doc.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	for _, x := range doc.PerLayer {
		layer[x.Name] = x.Unit
	}
	return e2e, layer
}

func runAndCheck(t *testing.T, ctx context.Context, e *env, o options,
	run func(context.Context, *env, options, *tally) error, specs []metric, want map[string]string) {
	t.Helper()
	tl := newTally()
	if err := run(ctx, e, o, tl); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tl.report(&out, specs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Unit string }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.Bytes())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("metric %s: reported %v with unit %q, want unit %q", name, ok, got.Unit, unit)
		}
	}
}
