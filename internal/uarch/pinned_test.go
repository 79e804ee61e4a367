package uarch

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/stats.jsonl from this run")

// pinnedConfigs are the configurations whose Stats are pinned for every
// workload: the fe x be grid the width experiment walks, three depth
// mappings, two gshare sizes and a small instruction cache.
func pinnedConfigs() []Config {
	var cfgs []Config
	for fe := 1; fe <= 6; fe++ {
		for be := 3; be <= 8; be++ {
			cfg := DefaultConfig()
			cfg.FrontWidth, cfg.BackWidth = fe, be
			cfgs = append(cfgs, cfg)
		}
	}
	base := DefaultConfig()
	base.FrontWidth, base.BackWidth = 2, 4
	for _, d := range [][3]int{{2, 0, 0}, {8, 1, 1}, {12, 2, 3}} {
		cfg := base
		cfg.FrontStages, cfg.IssueStages, cfg.ExecStages = d[0], d[1], d[2]
		cfgs = append(cfgs, cfg)
	}
	for _, bits := range []int{6, 14} {
		cfg := base
		cfg.PredBits = bits
		cfgs = append(cfgs, cfg)
	}
	cfg := base
	cfg.ICacheKB = 1
	return append(cfgs, cfg)
}

// pinnedRow is one line of testdata/stats.jsonl.
type pinnedRow struct {
	Bench  string
	Config Config
	Stats  Stats
}

// TestPinnedStats requires every workload's Stats on every pinned
// configuration to equal the committed ones exactly. Regenerate after an
// intentional model change with
//
//	go test ./internal/uarch/ -run TestPinnedStats -update
func TestPinnedStats(t *testing.T) {
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, w := range workload.All() {
		rec := record(t, w.Name)
		for _, cfg := range pinnedConfigs() {
			if err := enc.Encode(pinnedRow{w.Name, cfg, Run(rec, cfg)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "stats.jsonl")
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	wantRows := decodePinned(t, want)
	gotRows := decodePinned(t, got.Bytes())
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d pinned rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("%s on %+v:\n got %+v\nwant %+v", wantRows[i].Bench, wantRows[i].Config, gotRows[i].Stats, wantRows[i].Stats)
		}
	}
}

func decodePinned(t *testing.T, b []byte) []pinnedRow {
	t.Helper()
	var rows []pinnedRow
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var r pinnedRow
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}
