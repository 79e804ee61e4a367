package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// chromeFixture is the subset of the trace_event schema the tests need.
type chromeFixture struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]string `json:"otherData"`
}

// TestChromeTraceNesting builds a three-level span tree, exports it as
// Chrome trace JSON, and reconstructs the parent/child relations from
// the parsed args — the structure a trace viewer would show.
func TestChromeTraceNesting(t *testing.T) {
	Enable()
	defer Disable()
	ctx, root := Start(context.Background(), "root", KV("tech", "organic"))
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild", Int("depth", 3))
	grand.End()
	child.End()
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Collect()); err != nil {
		t.Fatal(err)
	}
	var doc chromeFixture
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	byName := map[string]map[string]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %s has ph=%q, want X", e.Name, e.Ph)
		}
		byName[e.Name] = e.Args
	}
	wantParent := map[string]string{
		"child":      byName["root"]["id"],
		"grandchild": byName["child"]["id"],
		"sibling":    byName["root"]["id"],
	}
	for name, parent := range wantParent {
		if got := byName[name]["parent"]; got != parent {
			t.Errorf("%s parent = %q, want %q", name, got, parent)
		}
	}
	if _, ok := byName["root"]["parent"]; ok {
		t.Error("root span should have no parent arg")
	}
	if got := byName["root"]["tech"]; got != "organic" {
		t.Errorf("root tech attr = %q, want organic", got)
	}
	if got := byName["grandchild"]["depth"]; got != "3" {
		t.Errorf("grandchild depth attr = %q, want 3", got)
	}
	if doc.OtherData["droppedSpans"] != "0" {
		t.Errorf("droppedSpans = %q, want 0", doc.OtherData["droppedSpans"])
	}
}

// TestStructuralKeysWinOverAttrs pins the exporter rule that an attr
// named "id" or "parent" cannot clobber the span-tree keys consumers
// rebuild nesting from.
func TestStructuralKeysWinOverAttrs(t *testing.T) {
	Enable()
	defer Disable()
	ctx, root := Start(context.Background(), "root")
	_, child := Start(ctx, "child", KV("id", "fig12"), KV("parent", "bogus"))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Collect()); err != nil {
		t.Fatal(err)
	}
	var doc chromeFixture
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{}
	for _, e := range doc.TraceEvents {
		ids[e.Name] = e.Args["id"]
	}
	for name, id := range ids {
		if _, err := strconv.ParseUint(id, 10, 64); err != nil {
			t.Errorf("%s id arg %q is not a span id", name, id)
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "child" && e.Args["parent"] != ids["root"] {
			t.Errorf("child parent = %q, want root's id %q", e.Args["parent"], ids["root"])
		}
	}
}

// TestConcurrentSpans hammers Start/End from many goroutines (run under
// -race in CI) and checks every span lands in the trace exactly once
// with its parent intact.
func TestConcurrentSpans(t *testing.T) {
	Enable()
	defer Disable()
	const workers, perWorker = 8, 50
	ctx, root := Start(context.Background(), "root")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				wctx, sp := Start(ctx, "work", Int("worker", w), Int("iter", i))
				_, inner := Start(wctx, "inner")
				inner.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	tr := Collect()
	if tr.Dropped != 0 {
		t.Fatalf("dropped %d spans with a default-capacity buffer", tr.Dropped)
	}
	want := 1 + 2*workers*perWorker
	if len(tr.Spans) != want {
		t.Fatalf("collected %d spans, want %d", len(tr.Spans), want)
	}
	byID := map[uint64]SpanRecord{}
	for _, s := range tr.Spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	var rootID uint64
	for _, s := range tr.Spans {
		if s.Name == "root" {
			rootID = s.ID
		}
	}
	for _, s := range tr.Spans {
		switch s.Name {
		case "work":
			if s.Parent != rootID {
				t.Errorf("work span %d parent = %d, want root %d", s.ID, s.Parent, rootID)
			}
		case "inner":
			if p, ok := byID[s.Parent]; !ok || p.Name != "work" {
				t.Errorf("inner span %d has parent %d (%s), want a work span", s.ID, s.Parent, p.Name)
			}
		}
	}
}

// TestEmptyTrace checks both exporters emit valid, well-formed output
// for a trace with no spans.
func TestEmptyTrace(t *testing.T) {
	Enable()
	defer Disable()
	tr := Collect()
	if len(tr.Spans) != 0 || tr.Dropped != 0 {
		t.Fatalf("fresh buffer not empty: %+v", tr)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc chromeFixture
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace invalid: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty trace has %d events", len(doc.TraceEvents))
	}
	buf.Reset()
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	spans, dropped, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 || dropped != 0 {
		t.Errorf("empty JSONL round-trip: %d spans, %d dropped", len(spans), dropped)
	}
}

// TestBufferOverflow fills a tiny buffer past capacity and checks the
// overflow is counted, reported by Collect, and surfaced by both
// exporters rather than silently truncated.
func TestBufferOverflow(t *testing.T) {
	const capacity, total = 4, 10
	EnableCapacity(capacity)
	defer Disable()
	for i := 0; i < total; i++ {
		_, sp := Start(context.Background(), "s", Int("i", i))
		sp.End()
	}
	tr := Collect()
	if len(tr.Spans) != capacity {
		t.Errorf("kept %d spans, want %d", len(tr.Spans), capacity)
	}
	if tr.Dropped != total-capacity {
		t.Errorf("dropped = %d, want %d", tr.Dropped, total-capacity)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc chromeFixture
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.OtherData["droppedSpans"]; got != strconv.Itoa(total-capacity) {
		t.Errorf("chrome droppedSpans = %q, want %d", got, total-capacity)
	}
	buf.Reset()
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	spans, dropped, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != capacity || dropped != total-capacity {
		t.Errorf("JSONL round-trip: %d spans %d dropped, want %d/%d",
			len(spans), dropped, capacity, total-capacity)
	}
}

// TestJSONLRoundTrip checks the JSONL exporter preserves every span
// field through a write/read cycle.
func TestJSONLRoundTrip(t *testing.T) {
	Enable()
	defer Disable()
	ctx, root := Start(context.Background(), "root", KV("k", "v"))
	_, child := Start(ctx, "child", Stage("sta"))
	child.End()
	root.End()
	tr := Collect()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	spans, _, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spans, tr.Spans) {
		t.Errorf("round-trip mismatch:\ngot  %+v\nwant %+v", spans, tr.Spans)
	}
	// The reserved stage attr is lifted into the Stage field, not
	// duplicated in Attrs.
	for _, s := range spans {
		if s.Name == "child" {
			if s.Stage != "sta" {
				t.Errorf("child stage = %q, want sta", s.Stage)
			}
			if len(s.Attrs) != 0 {
				t.Errorf("child attrs = %+v, want stage attr lifted out", s.Attrs)
			}
		}
	}
}

// TestManifestRoundTrip writes a populated manifest to disk, reads it
// back, and checks the encoding is deterministic.
func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("testtool")
	m.SetKnobs(map[string]string{"BIODEG_WORKERS": "3", "BIODEG_TRACE": ""})
	m.Workers = 3
	m.AddExperiment("fig3", "transfer curves", 1500*time.Millisecond, []TableDigest{
		{Title: "t1", SHA256: Digest("rendered table one")},
	})
	m.AddExperiment("fig8", "vm vs vss", 42*time.Millisecond, nil)
	m.Spans, m.Dropped, m.TotalWallMS = 7, 0, 1542.5

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round-trip mismatch:\ngot  %+v\nwant %+v", got, m)
	}
	if got.Env["BIODEG_WORKERS"] != "3" {
		t.Errorf("manifest env missing BIODEG_WORKERS: %+v", got.Env)
	}
	if _, ok := got.Env["BIODEG_TRACE"]; ok {
		t.Errorf("empty knob should be omitted: %+v", got.Env)
	}
	// Deterministic encoding: two encodes are byte-identical.
	a, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("manifest encoding is not deterministic")
	}
}

// TestDisabledSpans checks the disabled path: context unchanged, no
// ids, no buffering, Set/End harmless — including on a nil span.
func TestDisabledSpans(t *testing.T) {
	Disable()
	ctx := context.Background()
	got, sp := Start(ctx, "x", KV("a", "b"))
	if got != ctx {
		t.Error("disabled Start should return ctx unchanged")
	}
	sp.Set("k", "v")
	sp.End()
	sp.End() // idempotent
	var nilSpan *Span
	nilSpan.Set("k", "v")
	nilSpan.End()
	if Enabled() {
		t.Error("Enabled() = true after Disable")
	}
	if tr := Collect(); len(tr.Spans) != 0 {
		t.Errorf("disabled Collect returned %d spans", len(tr.Spans))
	}
}

// BenchmarkStartEndDisabled measures the tracing-off overhead per
// instrumented call site.
func BenchmarkStartEndDisabled(b *testing.B) {
	Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}

// BenchmarkStartEndEnabled is the tracing-on cost per span.
func BenchmarkStartEndEnabled(b *testing.B) {
	EnableCapacity(1 << 22)
	defer Disable()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "bench")
		sp.End()
	}
}
