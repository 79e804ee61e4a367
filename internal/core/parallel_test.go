package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// serialWidthSweep is the pre-runner reference implementation: the
// plain nested loop the parallel WidthSweep must match bit for bit.
func serialWidthSweep(t *Tech) ([]WidthPoint, error) {
	var pts []WidthPoint
	dff := t.DFF()
	for be := MinBack; be <= MaxBack; be++ {
		for fe := MinFront; fe <= MaxFront; fe++ {
			blocks, err := coreBlocks(context.Background(), t, fe, be, true)
			if err != nil {
				return nil, err
			}
			period, tp := pipeline.CoreTiming(context.Background(), blocks, dff, pipeline.Config{Wire: t.Wire, UseWire: true})
			mean, err := MeanIPC(uarchConfig(fe, be, nil))
			if err != nil {
				return nil, err
			}
			pts = append(pts, WidthPoint{
				Front: fe, Back: be,
				Period: period, Freq: tp.Freq, Area: tp.Area,
				MeanIPC: mean, Perf: mean * tp.Freq,
			})
		}
	}
	return pts, nil
}

func TestWidthSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	want, err := serialWidthSweep(tech)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WidthSweep(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel sweep has %d points, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d differs:\nparallel %+v\nserial   %+v", i, got[i], want[i])
		}
	}
}

func TestDepthSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	a, err := CoreDepthSweep(context.Background(), tech, 9, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoreDepthSweep(context.Background(), tech, 9, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated depth sweeps differ:\n%+v\n%+v", a, b)
	}
	for i, p := range a {
		if p.Depth != 9+i || len(p.IPC) != len(Benchmarks()) {
			t.Errorf("point %d malformed: depth %d, %d IPC entries", i, p.Depth, len(p.IPC))
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	tech := SiliconTech() // warm the caches so cancellation is what we time
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := WidthSweep(ctx, tech); !errors.Is(err, context.Canceled) {
		t.Fatalf("WidthSweep err = %v, want context.Canceled", err)
	}
	if _, err := CoreDepthSweep(ctx, tech, 9, 15, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("CoreDepthSweep err = %v, want context.Canceled", err)
	}
	if _, err := ALUDepthSweep(ctx, tech, 30, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("ALUDepthSweep err = %v, want context.Canceled", err)
	}
	if _, err := RunExperiments(ctx, Experiments()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunExperiments err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancelled sweeps took %v, expected prompt return", elapsed)
	}
}

func TestRunExperimentsOrderAndErrors(t *testing.T) {
	exps := []*Experiment{
		ExperimentByID("fig4"),
		ExperimentByID("fig3"),
	}
	res, err := RunExperiments(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Experiment.ID != "fig4" || res[1].Experiment.ID != "fig3" {
		t.Fatalf("results out of input order: %+v", res)
	}
	// A failing experiment surfaces its ID in the error.
	boom := &Experiment{ID: "boom", Title: "t", Paper: "p",
		Run: func(context.Context) ([]*Table, error) { return nil, errors.New("exploded") }}
	if _, err := RunExperiments(context.Background(), []*Experiment{boom}); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped experiment ID", err)
	}
}
