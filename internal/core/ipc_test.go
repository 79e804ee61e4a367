package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/uarch"
)

// widthGroups returns configurations in groups that differ only in
// BackWidth (MinBack to MaxBack, ascending): the width sweep's front
// widths at the baseline depth, and the non-width configurations pinned
// in internal/uarch (three depth mappings, two gshare sizes and a small
// instruction cache).
func widthGroups() [][]uarch.Config {
	var groups [][]uarch.Config
	add := func(base uarch.Config) {
		var g []uarch.Config
		for be := MinBack; be <= MaxBack; be++ {
			cfg := base
			cfg.BackWidth = be
			g = append(g, cfg)
		}
		groups = append(groups, g)
	}
	for fe := MinFront; fe <= MaxFront; fe++ {
		add(uarchConfig(fe, MinBack, nil))
	}
	base := uarch.DefaultConfig()
	base.FrontWidth = 2
	for _, d := range [][3]int{{2, 0, 0}, {8, 1, 1}, {12, 2, 3}} {
		cfg := base
		cfg.FrontStages, cfg.IssueStages, cfg.ExecStages = d[0], d[1], d[2]
		add(cfg)
	}
	for _, bits := range []int{6, 14} {
		cfg := base
		cfg.PredBits = bits
		add(cfg)
	}
	cfg := base
	cfg.ICacheKB = 1
	add(cfg)
	return groups
}

// raceEnabled is set under the race detector, which slows the
// single-goroutine timing loop about eighteenfold.
var raceEnabled bool

// TestSharedBackWidthsExact requires every answer of the shared path,
// whether replayed or taken from a run at another back-end width, to
// equal a direct simulation, with back widths requested ascending and
// descending. Under the race detector it checks the two shortest
// workloads only: the path runs on one goroutine, and
// TestConcurrentGeometries covers its concurrency.
func TestSharedBackWidthsExact(t *testing.T) {
	benches := Benchmarks()
	if raceEnabled {
		benches = []string{"parser", "vortex"}
	}
	want := map[ipcKey]uarch.Stats{}
	for _, bench := range benches {
		rec, err := recordOnce(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range widthGroups() {
			low := uarch.Lower(rec, g[0].Geometry())
			for _, cfg := range g {
				want[ipcKey{bench, cfg}], _ = uarch.Replay(low, cfg)
			}
		}
	}
	for _, descending := range []bool{false, true} {
		var w backWidths
		shared := 0
		for _, bench := range benches {
			for _, g := range widthGroups() {
				if descending {
					slices.Reverse(g)
				}
				for _, cfg := range g {
					got, sh, err := w.simulate(bench, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if sh {
						shared++
					}
					if w := want[ipcKey{bench, cfg}]; got != w {
						t.Errorf("descending %v, %s on %+v (shared %v):\n got %+v\nwant %+v", descending, bench, cfg, sh, got, w)
					}
				}
			}
		}
		t.Logf("descending %v: %d of %d answers shared", descending, shared, len(want))
		if shared == 0 {
			t.Errorf("descending %v: no answer came from a run at another width", descending)
		}
	}
}

// TestBenchIPCSharedSpan requires an answer taken from a wider run to
// keep its own "ipc" span, marked shared, and to count into ipc.shared.
func TestBenchIPCSharedSpan(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	// A geometry no other test uses, so both requests miss ipcMemo.
	cfg := uarchConfig(1, MaxBack, nil)
	cfg.PredBits = 5
	before := obs.Count(obs.StageIPCShared)
	wide, err := BenchIPCCtx(context.Background(), "vortex", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BackWidth--
	narrow, err := BenchIPCCtx(context.Background(), "vortex", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if narrow != wide {
		t.Fatalf("back widths %d and %d differ on an uncontended stream", MaxBack-1, MaxBack)
	}
	if got := obs.Count(obs.StageIPCShared) - before; got != 1 {
		t.Fatalf("ipc.shared rose by %d, want 1", got)
	}
	var spans, marked int
	for _, s := range obs.Collect().Spans {
		if s.Name != "ipc" {
			continue
		}
		spans++
		if slices.Contains(s.Attrs, obs.Attr{Key: "shared", Value: "true"}) {
			marked++
		}
	}
	if spans != 2 || marked != 1 {
		t.Fatalf("%d ipc spans, %d marked shared; want 2 and 1", spans, marked)
	}
}

// TestConcurrentGeometries lowers one workload for several geometries
// at once (run under -race) and requires each answer to equal a direct
// simulation.
func TestConcurrentGeometries(t *testing.T) {
	rec, err := recordOnce("parser")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []uarch.Config
	for _, bits := range []int{7, 9, 10, 11} {
		cfg := uarchConfig(2, 4, nil)
		cfg.PredBits = bits
		cfgs = append(cfgs, cfg, cfg) // the second of each pair waits on the first's lowering
		cfg.ICacheKB = 2
		cfgs = append(cfgs, cfg)
	}
	got := make([]uarch.Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			low, err := lowerOnce("parser", cfg.Geometry())
			if err == nil {
				got[i], _ = uarch.Replay(low, cfg)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := uarch.Run(rec, cfg); got[i] != want {
			t.Errorf("%+v:\n got %+v\nwant %+v", cfg, got[i], want)
		}
	}
}
