package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func optIdx(freq []float64) int {
	best := 0
	for i := range freq {
		if freq[i] > freq[best] {
			best = i
		}
	}
	return best
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	sil, org := SiliconTech(), OrganicTech()
	silPts, err := ALUDepthSweep(context.Background(), sil, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	orgPts, err := ALUDepthSweep(context.Background(), org, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	silF, silA := NormalizePoints(silPts)
	orgF, orgA := NormalizePoints(orgPts)
	silOpt := optIdx(silF) + 1
	orgOpt := optIdx(orgF) + 1
	t.Logf("silicon ALU optimum %d stages at %.2fx; organic %d at %.2fx",
		silOpt, silF[silOpt-1], orgOpt, orgF[orgOpt-1])
	// Paper: silicon saturates ~8 stages at ~4x; organic keeps scaling
	// past 22.
	if silOpt < 5 || silOpt > 14 {
		t.Errorf("silicon ALU optimal depth %d, paper reports ~8", silOpt)
	}
	if silF[silOpt-1] < 2.5 || silF[silOpt-1] > 7 {
		t.Errorf("silicon ALU peak %.2fx, paper reports ~4x", silF[silOpt-1])
	}
	if orgOpt < 22 {
		t.Errorf("organic ALU optimum %d, paper reports scaling past 22", orgOpt)
	}
	if orgF[21] < 1.5*silF[21] {
		t.Errorf("at 22 stages organic (%.2fx) should be far ahead of silicon (%.2fx)", orgF[21], silF[21])
	}
	// Area: both grow with depth; organic at least as fast (registers
	// are relatively bigger in the pseudo-E library).
	if orgA[29] <= 1.2 || silA[29] <= 1.05 {
		t.Errorf("areas should grow with depth: organic %.2fx silicon %.2fx", orgA[29], silA[29])
	}
	if orgA[29] < silA[29] {
		t.Errorf("organic area slope (%.2fx) should exceed silicon's (%.2fx)", orgA[29], silA[29])
	}
}

func TestFig15WireAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	sil, org := SiliconTech(), OrganicTech()
	silWire, err := ALUDepthSweep(context.Background(), sil, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	silDry, err := ALUDepthSweep(context.Background(), sil, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	orgWire, err := ALUDepthSweep(context.Background(), org, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	orgDry, err := ALUDepthSweep(context.Background(), org, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	fSilWire, _ := NormalizePoints(silWire)
	fSilDry, _ := NormalizePoints(silDry)
	fOrgWire, _ := NormalizePoints(orgWire)
	fOrgDry, _ := NormalizePoints(orgDry)
	// Organic is wire-insensitive: curves coincide within 3%.
	for i := range fOrgWire {
		if d := math.Abs(fOrgWire[i]-fOrgDry[i]) / fOrgDry[i]; d > 0.03 {
			t.Fatalf("organic wire/no-wire diverge %.1f%% at %d stages", 100*d, i+1)
		}
	}
	// Silicon without wire scales much further than with wire...
	if fSilDry[29] < 2*fSilWire[29] {
		t.Errorf("zero-wire silicon at 30 stages (%.2fx) should far exceed wired (%.2fx)",
			fSilDry[29], fSilWire[29])
	}
	// ...and approaches the organic scaling curve (paper's Fig 15 claim).
	if d := math.Abs(fSilDry[29]-fOrgDry[29]) / fOrgDry[29]; d > 0.25 {
		t.Errorf("zero-wire silicon (%.2fx) should approach organic (%.2fx)", fSilDry[29], fOrgDry[29])
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	type res struct {
		best map[string]int
		freq float64 // normalized 15-stage frequency
	}
	out := map[string]res{}
	for _, tech := range BothTechs() {
		pts, err := CoreDepthSweep(context.Background(), tech, 9, 15, true)
		if err != nil {
			t.Fatal(err)
		}
		norm := NormalizeDepth(pts)
		best := map[string]int{}
		for _, b := range Benchmarks() {
			best[b] = BestDepth(norm, b)
		}
		out[tech.Name] = res{best: best, freq: norm[len(norm)-1].Freq}
		t.Logf("%s: best depths %v, freq(15)=%.2fx", tech.Name, best, norm[len(norm)-1].Freq)
	}
	// Paper: silicon optima at 10-11 (we allow 9-12); organic at 14-15
	// (we allow 13-15); organic deeper than silicon for every benchmark.
	silAvg, orgAvg := 0.0, 0.0
	for _, b := range Benchmarks() {
		s, o := out["silicon45"].best[b], out["organic"].best[b]
		silAvg += float64(s)
		orgAvg += float64(o)
		if o < s {
			t.Errorf("%s: organic best depth %d shallower than silicon %d", b, o, s)
		}
	}
	n := float64(len(Benchmarks()))
	silAvg /= n
	orgAvg /= n
	if silAvg > 12 {
		t.Errorf("silicon mean best depth %.1f, paper reports 10-11", silAvg)
	}
	if orgAvg < 13 {
		t.Errorf("organic mean best depth %.1f, paper reports 14-15", orgAvg)
	}
	// Frequency trends at depth 15 (paper Fig 15b: organic ~2x, silicon ~1.5x).
	if out["organic"].freq < 1.5 || out["organic"].freq > 3.5 {
		t.Errorf("organic freq(15) = %.2fx, paper ~2x", out["organic"].freq)
	}
	if out["silicon45"].freq > out["organic"].freq {
		t.Errorf("silicon freq scaling (%.2fx) should trail organic (%.2fx)",
			out["silicon45"].freq, out["organic"].freq)
	}
}

func TestFig13And14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	mats := map[string][][]float64{}
	areas := map[string][][]float64{}
	opts := map[string][2]int{}
	for _, tech := range BothTechs() {
		pts, err := WidthSweep(context.Background(), tech)
		if err != nil {
			t.Fatal(err)
		}
		mats[tech.Name] = Matrix(pts, false)
		areas[tech.Name] = Matrix(pts, true)
		fe, be := Optimal(pts)
		opts[tech.Name] = [2]int{fe, be}
		t.Logf("%s optimum fe=%d be=%d", tech.Name, fe, be)
	}
	// Silicon back-end optimum at 4 (paper M[4][2]); front-end low.
	if be := opts["silicon45"][1]; be < 3 || be > 5 {
		t.Errorf("silicon back-end optimum %d, paper reports 4", be)
	}
	if fe := opts["silicon45"][0]; fe < 2 || fe > 5 {
		t.Errorf("silicon front-end optimum %d, paper reports 2", fe)
	}
	// Width sensitivity: walking the back-end from 4 to 7 at the best
	// front-end must cost silicon far more than organic (the paper's
	// "organic is less sensitive to width change").
	silFe := opts["silicon45"][0] - MinFront
	orgFe := opts["organic"][0] - MinFront
	silDrop := mats["silicon45"][4-MinBack][silFe] - mats["silicon45"][7-MinBack][silFe]
	orgDrop := mats["organic"][4-MinBack][orgFe] - mats["organic"][7-MinBack][orgFe]
	t.Logf("be4->be7 drop: silicon %.3f organic %.3f", silDrop, orgDrop)
	if orgDrop > 0.10 {
		t.Errorf("organic should be nearly flat in back-end width (drop %.3f)", orgDrop)
	}
	if silDrop < orgDrop+0.08 {
		t.Errorf("silicon width penalty (%.3f) should far exceed organic's (%.3f)", silDrop, orgDrop)
	}
	// Fig 14: area matrices nearly identical after normalization.
	for i := range areas["silicon45"] {
		for j := range areas["silicon45"][i] {
			if d := math.Abs(areas["silicon45"][i][j] - areas["organic"][i][j]); d > 0.06 {
				t.Errorf("area matrices diverge at [%d][%d]: %.3f", i, j, d)
			}
		}
	}
}

func TestAbsoluteFrequencies(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	sil, err := CoreDepthSweep(context.Background(), SiliconTech(), 9, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	org, err := CoreDepthSweep(context.Background(), OrganicTech(), 9, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baselines: silicon %.3g Hz, organic %.3g Hz", sil[0].Freq, org[0].Freq)
	// Paper: silicon ~800 MHz. Ours should land within 2x.
	if sil[0].Freq < 4e8 || sil[0].Freq > 1.6e9 {
		t.Errorf("silicon baseline %.3g Hz, paper reports ~800 MHz", sil[0].Freq)
	}
	// Organic lands in the Hz-to-kHz embedded band the paper targets
	// (ours is slower than their 200 Hz because the library keeps the
	// measured 80 um channel; see EXPERIMENTS.md).
	if org[0].Freq < 0.5 || org[0].Freq > 1e4 {
		t.Errorf("organic baseline %.3g Hz outside the plausible band", org[0].Freq)
	}
}

func TestUarchConfigMapping(t *testing.T) {
	cuts := map[StageName]int{
		StFetch: 2, StDecode: 1, StRename: 1, StDispatch: 1,
		StIssue: 2, StRegRead: 1, StExecute: 3, StWriteback: 1, StRetire: 1,
	}
	cfg := uarchConfig(2, 5, cuts)
	if cfg.FrontWidth != 2 || cfg.BackWidth != 5 {
		t.Fatalf("widths not mapped: %+v", cfg)
	}
	if cfg.FrontStages != 5 {
		t.Errorf("FrontStages = %d, want 5", cfg.FrontStages)
	}
	if cfg.IssueStages != 1 {
		t.Errorf("IssueStages = %d, want 1", cfg.IssueStages)
	}
	if cfg.ExecStages != 2 {
		t.Errorf("ExecStages = %d, want 2", cfg.ExecStages)
	}
	// Baseline (nil cuts) keeps the defaults.
	base := uarchConfig(1, 3, nil)
	if base.FrontStages != 4 || base.IssueStages != 0 || base.ExecStages != 0 {
		t.Errorf("baseline mapping wrong: %+v", base)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range []string{"fig3", "fig4", "fig11", "fig12", "fig13", "fig14", "fig15", "absfreq"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if ExperimentByID("nope") != nil {
		t.Error("unknown ID should return nil")
	}
	// The cheap device experiments must run end to end.
	for _, id := range []string{"fig3", "fig4"} {
		tables, err := ExperimentByID(id).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		if out := tables[0].Render(); !strings.Contains(out, "==") {
			t.Fatalf("%s render malformed:\n%s", id, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title: "t",
		Cols:  []string{"a", "bb"},
		Rows:  []string{"r1", "row2"},
		V:     [][]float64{{1, 2}, {3.5, 4.25}},
		Note:  "hello",
	}
	out := tb.Render()
	for _, want := range []string{"== t ==", "a", "bb", "r1", "row2", "3.5", "4.25", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestStageBlocksSane(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	for _, tech := range BothTechs() {
		blocks, err := coreBlocks(context.Background(), tech, 2, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != int(numStages) {
			t.Fatalf("%s: %d blocks", tech.Name, len(blocks))
		}
		for _, b := range blocks {
			if b.Delay() <= 0 {
				t.Errorf("%s/%s: non-positive delay", tech.Name, b.Name)
			}
			if b.Result.CombArea <= 0 {
				t.Errorf("%s/%s: non-positive area", tech.Name, b.Name)
			}
		}
		// Issue should be among the heaviest stages at baseline widths.
		_, tp := pipeline.CoreTiming(context.Background(), blocks, tech.DFF(), pipeline.Config{Wire: tech.Wire, UseWire: true})
		if tp.Freq <= 0 {
			t.Errorf("%s: bad core timing", tech.Name)
		}
	}
}

func TestEnergySweepExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	org, err := EnergySweep(context.Background(), OrganicTech(), 9, 15)
	if err != nil {
		t.Fatal(err)
	}
	sil, err := EnergySweep(context.Background(), SiliconTech(), 9, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Organic is static-dominated; silicon dynamic-dominated.
	if org[0].StaticShare < 0.9 {
		t.Errorf("organic static share %.3f, want ~1", org[0].StaticShare)
	}
	if sil[0].StaticShare > 0.1 {
		t.Errorf("silicon static share %.3f, want ~0", sil[0].StaticShare)
	}
	// Hence organic's energy-optimal depth is deeper than silicon's.
	bestOf := func(pts []EnergyPoint) int {
		best := pts[0]
		for _, p := range pts {
			if p.EPI < best.EPI {
				best = p
			}
		}
		return best.Depth
	}
	bo, bs := bestOf(org), bestOf(sil)
	t.Logf("energy-optimal depth: organic %d, silicon %d", bo, bs)
	if bo <= bs {
		t.Errorf("static-dominated organic should minimize energy deeper: %d vs %d", bo, bs)
	}
	// Energies must be physically ordered: organic EPI >> silicon EPI.
	if org[0].EPI < 1e3*sil[0].EPI {
		t.Errorf("organic EPI %.3g should dwarf silicon %.3g", org[0].EPI, sil[0].EPI)
	}
}
