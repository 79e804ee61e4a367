package core

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/runner"
)

// serialALU is the serial reference of ALUDepthSweep: a plain loop over
// the same per-point function.
func serialALU(ctx context.Context, t *Tech, maxStages int, wire bool) ([]pipeline.Point, error) {
	pts := make([]pipeline.Point, maxStages)
	for i := range pts {
		p, err := aluPoint(ctx, t, wire, i+1)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// serialWidth is the serial reference of WidthSweep.
func serialWidth(ctx context.Context, t *Tech) ([]WidthPoint, error) {
	pts := make([]WidthPoint, widthN)
	for i := range pts {
		fe, be := widthAt(i)
		p, err := widthPoint(ctx, t, fe, be)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// serialDepth is the serial reference of CoreDepthSweep: the cut walk,
// then every (depth, benchmark) pair in depth-major order.
func serialDepth(ctx context.Context, t *Tech, minDepth, maxDepth int, wire bool) ([]DepthPoint, error) {
	pts, err := depthSkeleton(ctx, t, minDepth, maxDepth, wire)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		for _, b := range Benchmarks() {
			st, err := depthPairEval(ctx, t, wire, pts[i], b)
			if err != nil {
				return nil, err
			}
			pts[i].IPC[b] = st.IPC
			pts[i].Perf[b] = st.IPC * pts[i].Freq
		}
	}
	return pts, nil
}

// styleSweep is one conformance subject: a sweep and its serial
// reference.
type styleSweep struct {
	name   string
	serial func(ctx context.Context, t *Tech) (any, error)
	sweep  func(ctx context.Context, t *Tech) (any, error)
}

var styleSweeps = []styleSweep{
	{"alu-depth",
		func(ctx context.Context, t *Tech) (any, error) { return serialALU(ctx, t, 30, true) },
		func(ctx context.Context, t *Tech) (any, error) { return ALUDepthSweep(ctx, t, 30, true) }},
	{"alu-depth-nowire",
		func(ctx context.Context, t *Tech) (any, error) { return serialALU(ctx, t, 30, false) },
		func(ctx context.Context, t *Tech) (any, error) { return ALUDepthSweep(ctx, t, 30, false) }},
	{"width",
		func(ctx context.Context, t *Tech) (any, error) { return serialWidth(ctx, t) },
		func(ctx context.Context, t *Tech) (any, error) { return WidthSweep(ctx, t) }},
	{"core-depth",
		func(ctx context.Context, t *Tech) (any, error) { return serialDepth(ctx, t, 9, 11, true) },
		func(ctx context.Context, t *Tech) (any, error) { return CoreDepthSweep(ctx, t, 9, 11, true) }},
	{"core-depth-nowire",
		func(ctx context.Context, t *Tech) (any, error) { return serialDepth(ctx, t, 9, 11, false) },
		func(ctx context.Context, t *Tech) (any, error) { return CoreDepthSweep(ctx, t, 9, 11, false) }},
}

// sweepJSON is the byte-for-byte witness: two results that marshal to
// the same JSON render, journal, and serve identically.
func sweepJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenExecutionStyles is the conformance matrix: for each sweep,
// the pooled sweep must return exactly the points a serial loop over
// the same per-point functions computes, and a one-worker and a
// four-worker sweep must produce the same bytes.
func TestGoldenExecutionStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	one := config.WithContext(context.Background(), config.Config{Workers: 1})
	four := config.WithContext(context.Background(), config.Config{Workers: 4})
	for _, ss := range styleSweeps {
		t.Run(ss.name, func(t *testing.T) {
			// Point level: serial loop vs pool.
			want, err := ss.serial(context.Background(), tech)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := ss.sweep(four, tech)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, pooled) {
				t.Errorf("pooled sweep diverged from the serial reference")
			}

			// Assembly level: the same bytes at every pool size.
			single, err := ss.sweep(one, tech)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sweepJSON(t, single), sweepJSON(t, pooled)) {
				t.Errorf("4-worker sweep bytes diverged from the 1-worker sweep")
			}
		})
	}
}

// TestGridCheckpointKeys pins one checkpoint key per sweep kind: a
// journal written by any earlier build replays only while these bytes
// hold.
func TestGridCheckpointKeys(t *testing.T) {
	sil, org := &Tech{Name: "silicon45"}, &Tech{Name: "organic"}
	// Core depths 9-15 start at the uncut baseline.
	depths := []DepthPoint{{Depth: 9}, {Depth: 10}}
	for _, tc := range []struct{ got, want string }{
		{aluKey(sil, true)(4), "alu/silicon45/wire/k0/n5"},
		{aluKey(org, false)(0), "alu/organic/nowire/k0/n1"},
		{depthKey(org, false, depths)(8), "depth/organic/nowire/d10/gap"},
		{widthKey(sil)(7), "width/silicon45/fe2/be4"},
	} {
		if tc.got != tc.want {
			t.Errorf("checkpoint key %q, want %q", tc.got, tc.want)
		}
	}
}

// TestSweepRecomputesUndecodableRecord: a journaled point that no
// longer decodes into the sweep's point type is recomputed, as
// runner.Checkpointed documents, rather than failing the sweep.
func TestSweepRecomputesUndecodableRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := SiliconTech()
	base := config.WithContext(context.Background(), config.Config{Workers: 2})
	want, err := ALUDepthSweep(base, tech, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := checkpoint.Open(context.Background(),
		filepath.Join(t.TempDir(), "journal.bdj"), checkpoint.Meta{Tool: "test", Label: "core"})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if err := jnl.Commit(context.Background(), aluKey(tech, true)(0), []byte(`"x"`)); err != nil {
		t.Fatal(err)
	}
	got, err := ALUDepthSweep(runner.WithCheckpoint(base, jnl), tech, 3, true)
	if err != nil {
		t.Fatalf("sweep over an undecodable record: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sweep over an undecodable record = %+v, want %+v", got, want)
	}
}
