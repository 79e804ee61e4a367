package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// loadTestReference returns the reference and a deep copy of its raw
// experiments for a test to perturb.
func loadTestReference(t *testing.T) (reference, []experiment) {
	t.Helper()
	ref, err := loadReference("testdata/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("testdata/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var exps []experiment
	if err := json.Unmarshal(b, &exps); err != nil {
		t.Fatal(err)
	}
	return ref, exps
}

func encode(t *testing.T, exps []experiment) []byte {
	t.Helper()
	b, err := json.Marshal(exps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReferencePassesItsOwnCheck(t *testing.T) {
	ref, exps := loadTestReference(t)
	identical, err := ref.check(encode(t, exps), nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, x := range exps {
		tables += len(x.Tables)
	}
	if identical != tables {
		t.Errorf("%d of %d tables identical to themselves", identical, tables)
	}
}

// TestCheckRejectsPerturbedTable is the checker's negative test: a value
// moved past the tolerance must fail, one moved within it must pass and
// only lower the bit-identical count.
func TestCheckRejectsPerturbedTable(t *testing.T) {
	ref, exps := loadTestReference(t)
	cell := &exps[len(exps)-1].Tables[0].Values[0][0]
	orig := *cell

	*cell = orig * (1 + 1e-4)
	if _, err := ref.check(encode(t, exps), nil); err == nil {
		t.Fatal("a table value 1e-4 off the reference passed the check")
	}

	*cell = orig * (1 + 1e-9)
	identical, err := ref.check(encode(t, exps), nil)
	if err != nil {
		t.Fatalf("a 1e-9 relative change must pass: %v", err)
	}
	if want := 22; identical != want {
		t.Errorf("identical tables = %d, want %d", identical, want)
	}
}

func TestCheckRejectsMissingTablesAndErrors(t *testing.T) {
	ref, exps := loadTestReference(t)
	if _, err := ref.check(encode(t, exps[1:]), nil); err == nil {
		t.Error("output missing an experiment passed")
	}
	exps[0].Tables[0].Errors = []string{"fig3: injected"}
	if _, err := ref.check(encode(t, exps), nil); err == nil {
		t.Error("a table reporting errors passed")
	}
	if _, err := ref.check(encode(t, exps[1:2]), []string{"fig4"}); err != nil {
		t.Errorf("checking a subset: %v", err)
	}
}

// TestShapeInvariants breaks each DESIGN.md §5 invariant in turn and
// expects checkShapes to name it.
func TestShapeInvariants(t *testing.T) {
	_, exps := loadTestReference(t)
	byID := map[string]experiment{}
	for _, x := range exps {
		byID[x.ID] = x
	}
	if err := checkShapes(byID); err != nil {
		t.Fatalf("reference violates its own invariants: %v", err)
	}
	cases := []struct {
		name, want string
		mutate     func(map[string]experiment)
	}{
		{"silicon ALU optimum", "peaks at 9 stages", func(m map[string]experiment) {
			m["fig12"].Tables[0].Values[8][0] = 100
		}},
		{"organic ALU still rising", "no longer rising", func(m map[string]experiment) {
			m["fig12"].Tables[1].Values[29][0] = 0
		}},
		{"silicon width optimum", "want be=4", func(m map[string]experiment) {
			m["fig13"].Tables[0].Values[0][0] = 2
		}},
		{"organic deeper per benchmark", "want organic deeper", func(m map[string]experiment) {
			m["fig11"].Tables[0].Values[6][2] = 100
		}},
		{"no-wire convergence", "more than 1% apart", func(m map[string]experiment) {
			m["fig15"].Tables[0].Values[29][1] *= 1.05
		}},
		{"VM monotone in VSS", "not monotone", func(m map[string]experiment) {
			m["fig8"].Tables[0].Values[4][0] = 0
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, exps := loadTestReference(t)
			m := map[string]experiment{}
			for _, x := range exps {
				m[x.ID] = x
			}
			c.mutate(m)
			err := checkShapes(m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("checkShapes = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// testSpans is a small trace: an experiment with overlapping children,
// a root characterize-library span and one runner task.
var testSpans = []obs.SpanRecord{
	{ID: 1, Name: "experiment", Start: 0, Dur: 100},
	{ID: 2, Parent: 1, Name: "ipc", Start: 10, Dur: 30},
	{ID: 3, Parent: 1, Name: "ipc", Start: 30, Dur: 30},        // overlaps its sibling
	{ID: 4, Parent: 1, Name: "sta", Start: 90, Dur: 20},        // runs past its parent
	{ID: 5, Name: "characterize-library", Start: 50, Dur: 100}, // a root
	{ID: 6, Name: "runner.task", Start: 0, Dur: 1, Attrs: []obs.Attr{{Key: "queue_wait_us", Value: "7"}}},
}

func TestProfileSelfTimeAndBlocking(t *testing.T) {
	p, err := profileOf(testSpans)
	if err != nil {
		t.Fatal(err)
	}
	// Children cover [10,60) and [90,100) of the experiment: 60 ns.
	if got := p.self["experiment"]; got != 40*time.Nanosecond {
		t.Errorf("experiment self time = %v, want 40ns", got)
	}
	if got := p.self["ipc"]; got != 60*time.Nanosecond || p.count["ipc"] != 2 {
		t.Errorf("ipc self time = %v over %d spans, want 60ns over 2", got, p.count["ipc"])
	}
	if got := p.charBlocked; got != 50*time.Nanosecond {
		t.Errorf("charBlocked = %v, want 50ns", got)
	}
	if got := p.queueWait; got != 7*time.Microsecond {
		t.Errorf("queueWait = %v, want 7us", got)
	}
}

// TestReadProfileRejectsBadTraces writes the test trace the way
// `replicate -jsonl` does and expects readProfile to accept it whole and
// refuse it cut short or with dropped spans.
func TestReadProfileRejectsBadTraces(t *testing.T) {
	var buf, dropped bytes.Buffer
	if err := obs.WriteJSONL(&buf, obs.Trace{Spans: testSpans}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&dropped, obs.Trace{Spans: testSpans, Dropped: 1}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	lines := bytes.SplitAfter(whole, []byte("\n"))
	for _, c := range []struct {
		name  string
		trace []byte
		ok    bool
	}{
		{"whole", whole, true},
		{"no summary line", bytes.Join(lines[:len(lines)-2], nil), false},
		{"cut mid-line", whole[:len(lines[0])+5], false},
		{"dropped spans", dropped.Bytes(), false},
	} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := os.WriteFile(path, c.trace, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readProfile(path); (err == nil) != c.ok {
			t.Errorf("%s: readProfile error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
