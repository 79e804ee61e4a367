package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("test_events_total", "events", "stage", "outcome")
	if n := v.With("sta", "ok").Inc(); n != 1 {
		t.Errorf("first Inc = %d, want 1", n)
	}
	if n := v.With("sta", "ok").Add(4); n != 5 {
		t.Errorf("Add(4) = %d, want 5", n)
	}
	v.With("ipc", "error").Inc()
	if c, ok := v.Get("sta", "ok"); !ok || c.Value() != 5 {
		t.Errorf("Get(sta,ok) = %v,%v, want 5,true", c, ok)
	}
	if _, ok := v.Get("never", "touched"); ok {
		t.Error("Get of untouched series reported ok")
	}
	var got [][]string
	v.Range(func(values []string, c *Counter) {
		got = append(got, values)
	})
	if len(got) != 2 || got[0][0] != "ipc" || got[1][0] != "sta" {
		t.Errorf("Range order = %v, want sorted [ipc sta]", got)
	}
}

func TestCounterPanics(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("test_total", "t", "a")
	mustPanic(t, "negative Add", func() { v.With("x").Add(-1) })
	mustPanic(t, "label arity", func() { v.With("x", "y") })
	mustPanic(t, "type conflict", func() { r.Gauge("test_total", "t", "a") })
	mustPanic(t, "schema conflict", func() { r.Counter("test_total", "t", "b") })
	mustPanic(t, "invalid name", func() { r.Counter("bad-name", "t") })
	mustPanic(t, "invalid label", func() { r.Counter("ok_total", "t", "__reserved") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help", "l")
	b := r.Counter("same_total", "help", "l")
	a.With("x").Inc()
	if c, ok := b.Get("x"); !ok || c.Value() != 1 {
		t.Error("re-registered vec does not share series")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "g").With()
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("test_seconds", "h", []float64{1, 10, 100}, "stage")
	h := v.With("sta")
	for _, obs := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(obs)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Errorf("sum = %g, want 556.5", h.Sum())
	}
	if h.Max() != 500 {
		t.Errorf("max = %g, want 500", h.Max())
	}
	// Bound values land in their own bucket (le is inclusive).
	want := []int64{2, 1, 1, 1}
	for i, n := range h.Buckets() {
		if n != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, n, want[i])
		}
	}
	mustPanic(t, "non-increasing buckets", func() {
		r.Histogram("bad_seconds", "h", []float64{1, 1})
	})
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("reset_total", "r", "l")
	old := v.With("x")
	old.Inc()
	r.Reset()
	if _, ok := v.Get("x"); ok {
		t.Error("series survived Reset")
	}
	old.Inc() // detached handle must not panic
	if n := v.With("x").Value(); n != 0 {
		t.Errorf("recreated series starts at %d, want 0", n)
	}
}

func TestConcurrentVecAccess(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("conc_total", "c", "g")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := string(rune('a' + id%2))
			for i := 0; i < 500; i++ {
				v.With(lbl).Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	v.Range(func(_ []string, c *Counter) { total += c.Value() })
	if total != 4000 {
		t.Errorf("total = %d, want 4000", total)
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"biodeg_http_requests_total": true,
		"a:b_c1":                     true,
		"":                           false,
		"1abc":                       false,
		"bad-name":                   false,
		"bad.name":                   false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %t, want %t", name, got, want)
		}
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("esc_total", `help with \ backslash`+"\nand newline", "l")
	v.With("quote\" back\\slash \nnewline").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{l="quote\" back\\slash \nnewline"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("want 3 physical lines (HELP, TYPE, sample):\n%q", out)
	}
}
