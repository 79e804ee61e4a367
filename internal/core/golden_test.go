// Golden-conformance suite: committed renderings of the cheap
// experiments (testdata/golden/*.tbl) pin the exact bytes every
// execution style must produce, and a checkpoint-resumed sweep must
// agree with a cold one byte for byte (the serial-versus-pool matrix is
// TestGoldenExecutionStyles in sweep_test.go). The suite is the
// safety net under hot-path kernel changes: an optimization that
// perturbs float evaluation order or point enumeration fails here, not
// in a downstream diff.
//
// Regenerate the golden files after an intentional output change with
//
//	go test ./internal/core/ -run TestGolden -update
package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.tbl from this run")

// goldenIDs are the experiments whose rendered tables are pinned.
// Device/cell analyses (fig3-fig9) are cheap and fully analytic; fig12
// exercises the synthesis + STA + pipelining stack end to end; fig11,
// fig13 and energy are the experiments that carry simulated IPC.
var goldenIDs = []string{"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig12", "fig11", "fig13", "energy"}

// expensiveGolden marks the IDs skipped under -short (they need
// characterized libraries or full depth sweeps).
var expensiveGolden = map[string]bool{"fig9": true, "fig12": true, "fig11": true, "fig13": true, "energy": true}

// renderAll concatenates an experiment's rendered tables — the exact
// bytes replicate prints and the digest manifest hashes.
func renderAll(tables []*core.Table) []byte {
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".tbl")
}

func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && expensiveGolden[id] {
				t.Skip("expensive golden experiment")
			}
			e := core.ExperimentByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			tables, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(tables)
			path := goldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s rendering diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					id, path, got, want)
			}
		})
	}
}

// mustJSON is the byte-for-byte witness: two results that marshal to
// the same JSON would render, journal, and ship over the wire
// identically.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenCheckpointResume closes the matrix: a journaled sweep
// replayed through a fresh journal handle (the crash-resume shape)
// produces the same bytes as a cold run.
func TestGoldenCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := core.SiliconTech()
	base := config.WithContext(context.Background(), config.Config{Workers: 4})
	cold, err := core.ALUDepthSweep(base, tech, 12, true)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.bdj")
	meta := checkpoint.Meta{Tool: "test", Label: "golden"}
	jnl, _, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl), tech, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	jnl2, rec, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.Records != 12 {
		t.Fatalf("recovered %d journal records, want 12", rec.Records)
	}
	resumed, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl2), tech, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]any{"journaled": first, "resumed": resumed} {
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, cold)) {
			t.Errorf("%s sweep bytes diverged from the cold run", name)
		}
	}
	if st := jnl2.Stats(); st.Replayed < 12 {
		t.Errorf("resumed run replayed %d points, want all 12", st.Replayed)
	}
}
