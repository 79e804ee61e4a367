package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
)

// chaosCtx returns a context with partial results on and the given
// injector attached (a high rate so small grids fault reliably).
func chaosCtx(in *fault.Injector) context.Context {
	return config.WithContext(context.Background(), config.Config{
		Workers: 4, PartialResults: true, Faults: in,
	})
}

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestALUPartialSweepAnnotatesFailedPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	in := fault.New(mustSpec(t, "seed=7,rate=0.5,kinds=error,stages=alu-point"))
	pts, err := ALUDepthSweep(chaosCtx(in), tech, 12, true)
	if err != nil {
		t.Fatalf("partial sweep aborted: %v", err)
	}
	if len(pts) != 12 {
		t.Fatalf("got %d points, want full grid of 12", len(pts))
	}
	failed := 0
	for i, p := range pts {
		if p.Stages != i+1 {
			t.Errorf("point %d has Stages=%d", i, p.Stages)
		}
		if p.Err != "" {
			failed++
			if p.Freq != 0 || p.Area != 0 {
				t.Errorf("failed point n=%d kept numerics: %+v", p.Stages, p)
			}
		} else if p.Freq <= 0 {
			t.Errorf("computed point n=%d has Freq=%v", p.Stages, p.Freq)
		}
	}
	if failed == 0 {
		t.Fatal("rate=0.5 over 12 sites injected nothing")
	}
	// Normalization of a partially-failed grid must stay finite.
	freq, area := NormalizePoints(pts)
	for i := range pts {
		if freq[i] != freq[i] || area[i] != area[i] { // NaN check
			t.Fatalf("NaN in normalized output at %d", i)
		}
	}
}

func TestALUPartialSweepSameSeedSameSites(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	sites := func() []int {
		in := fault.New(mustSpec(t, "seed=3,rate=0.4,kinds=error,stages=alu-point"))
		pts, err := ALUDepthSweep(chaosCtx(in), tech, 12, false)
		if err != nil {
			t.Fatal(err)
		}
		var failed []int
		for _, p := range pts {
			if p.Err != "" {
				failed = append(failed, p.Stages)
			}
		}
		return failed
	}
	a, b := sites(), sites()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed faulted different sites: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rate=0.4 over 12 sites injected nothing")
	}
}

func TestDepthPartialSweepAnnotatesBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	in := fault.New(mustSpec(t, "seed=11,rate=0.5,kinds=error,stages=depth-point"))
	pts, err := CoreDepthSweep(chaosCtx(in), tech, 9, 10, true)
	if err != nil {
		t.Fatalf("partial sweep aborted: %v", err)
	}
	annotated := 0
	for _, p := range pts {
		for b, e := range p.Errors {
			annotated++
			if e == "" {
				t.Errorf("d=%d %s: empty annotation", p.Depth, b)
			}
			if _, ok := p.IPC[b]; ok {
				t.Errorf("d=%d %s annotated but still has IPC", p.Depth, b)
			}
		}
		if len(p.IPC)+len(p.Errors) != len(Benchmarks()) {
			t.Errorf("d=%d covers %d+%d benchmarks, want %d",
				p.Depth, len(p.IPC), len(p.Errors), len(Benchmarks()))
		}
	}
	if annotated == 0 {
		t.Fatal("rate=0.5 injected nothing across the depth grid")
	}
	// NormalizeDepth over a grid whose base point may have failed
	// benchmarks must stay finite.
	for _, p := range NormalizeDepth(pts) {
		for b, v := range p.Perf {
			if v != v {
				t.Fatalf("NaN normalized perf at d=%d %s", p.Depth, b)
			}
		}
	}
}

func TestNonPartialSweepStillFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	in := fault.New(mustSpec(t, "seed=7,rate=1,kinds=error,stages=alu-point"))
	ctx := config.WithContext(context.Background(), config.Config{Faults: in}) // no PartialResults
	if _, err := ALUDepthSweep(ctx, tech, 6, true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault to abort the sweep", err)
	}
}

func TestEnergySweepFiniteUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	in := fault.New(mustSpec(t, "seed=5,rate=0.6,kinds=error,stages=depth-point"))
	pts, err := EnergySweep(chaosCtx(in), tech, 9, 10)
	if err != nil {
		t.Fatalf("energy sweep aborted: %v", err)
	}
	for _, p := range pts {
		for name, v := range map[string]float64{"epi": p.EPI, "ipc": p.MeanIPC, "share": p.StaticShare} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("d=%d %s = %v, want finite non-negative", p.Depth, name, v)
			}
		}
	}
}
