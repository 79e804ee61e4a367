package biodeg

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestInverterDCThroughAPI(t *testing.T) {
	dc, err := InverterDC(PseudoE, 5, -15)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Gain < 1.5 || dc.VOH < 4.5 || dc.VOL > 0.5 {
		t.Errorf("pseudo-E at the library point looks wrong: %v", dc)
	}
}

func TestSimulateIPC(t *testing.T) {
	cfg := DefaultCore()
	cfg.FrontWidth = 2
	cfg.BackWidth = 4
	st, err := New(Config{}).SimulateIPC(context.Background(), "gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0.2 || st.IPC > 2 {
		t.Errorf("gzip IPC %.3f out of range", st.IPC)
	}
}

func TestExperimentsList(t *testing.T) {
	if len(Experiments()) < 10 {
		t.Fatalf("registry too small: %d", len(Experiments()))
	}
	s := New(Config{})
	tables, err := s.RunExperiment(context.Background(), "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].Render(), "mu_lin") {
		t.Error("fig3 table missing mobility row")
	}
	if _, err := s.RunExperiment(context.Background(), "fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestConcurrentExperiments hammers the memo caches from many
// goroutines: the same cheap experiments and the same IPC key raced
// against each other must all succeed and agree. Run under -race this
// is the safety test for the per-key singleflight caches.
func TestConcurrentExperiments(t *testing.T) {
	s := New(Config{})
	ids := []string{"fig3", "fig4", "fig3", "fig4"}
	var wg sync.WaitGroup
	renders := make([]string, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			tables, err := s.RunExperiment(context.Background(), id)
			if err != nil {
				errs[i] = err
				return
			}
			renders[i] = tables[0].Render()
		}(i, id)
	}
	cfg := DefaultCore()
	ipcs := make([]float64, 4)
	for i := range ipcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.SimulateIPC(context.Background(), "gzip", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			ipcs[i] = st.IPC
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	if renders[0] != renders[2] || renders[1] != renders[3] {
		t.Error("concurrent runs of the same experiment disagree")
	}
	for _, ipc := range ipcs[1:] {
		if ipc != ipcs[0] {
			t.Errorf("concurrent SimulateIPC disagrees: %v", ipcs)
		}
	}
}

func TestRunExperimentsAPI(t *testing.T) {
	s := New(Config{})
	res, err := s.RunExperiments(context.Background(), "fig4", "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Experiment.ID != "fig4" || res[1].Experiment.ID != "fig3" {
		t.Fatalf("results not in requested order: %+v", res)
	}
	if _, err := s.RunExperiments(context.Background(), "fig3", "fig99"); err == nil {
		t.Error("unknown ID must fail before any experiment runs")
	}
}

// TestProgressHook checks a session's work drives the per-stage
// counters that biodegd's /metricsz serves as progress.
func TestProgressHook(t *testing.T) {
	s := New(Config{})
	before := obs.Count(obs.StageIPC)
	if _, err := s.SimulateIPC(context.Background(), "dhrystone", DefaultCore()); err != nil {
		t.Fatal(err)
	}
	if got := obs.Count(obs.StageIPC); got <= before {
		t.Errorf("Count(ipc) = %d after SimulateIPC, want above %d", got, before)
	}
}

func TestTechnologiesThroughAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	org, sil := Organic(), Silicon()
	if Library(org).FO4() <= Library(sil).FO4() {
		t.Error("organic FO4 must exceed silicon's")
	}
	pts, err := New(Config{}).ALUDepth(context.Background(), sil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || pts[5].Freq <= pts[0].Freq {
		t.Error("ALU depth sweep not improving frequency at shallow depths")
	}
}
