package fault

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseRoundTrip(t *testing.T) {
	spec, err := Parse("seed=7,rate=0.25,kinds=error+panic,latency=5ms,stages=depth-point+server")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || spec.Rate != 0.25 || spec.Latency != 5*time.Millisecond {
		t.Fatalf("parsed %+v", spec)
	}
	if len(spec.Kinds) != 2 || spec.Kinds[0] != KindError || spec.Kinds[1] != KindPanic {
		t.Fatalf("kinds %v", spec.Kinds)
	}
	if len(spec.Stages) != 2 || spec.Stages[0] != "depth-point" {
		t.Fatalf("stages %v", spec.Stages)
	}
	again, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip %q != %q", again.String(), spec.String())
	}
}

func TestParseDefaultsAndErrors(t *testing.T) {
	spec, err := Parse("seed=1,rate=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.kinds(); len(got) != 2 || got[0] != KindError || got[1] != KindLatency {
		t.Fatalf("default kinds %v", got)
	}
	if spec.latency() != DefaultLatency {
		t.Fatalf("default latency %v", spec.latency())
	}
	if s, err := Parse(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	// Each rejection names the offending element (the whole spec when
	// no single element is at fault).
	for _, bad := range []struct{ spec, elem string }{
		{"seed=1", "seed=1"},
		{"rate=2,seed=1", "rate=2"},
		{"seed=x,rate=0.1", "seed=x"},
		{"seed=1,rate=0.1,kinds=bogus", "kinds=bogus"},
		{"seed=1,rate=0.1,latency=fast", "latency=fast"},
		{"seed=1,rate=0.1,wat=1", "wat=1"},
		{"justtext", "justtext"},
		{"seed=1,rate=NaN", "rate=NaN"},
		{"seed=1,rate=0.1,latency=-5ms", "latency=-5ms"},
		{"seed=1,rate=0.1,latency=0", "latency=0"},
		{"seed=1,rate=0.1,latency=0s", "latency=0s"},
	} {
		_, err := Parse(bad.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", bad.spec)
			continue
		}
		if !strings.Contains(err.Error(), bad.elem) {
			t.Errorf("Parse(%q) error %q does not name %q", bad.spec, err, bad.elem)
		}
	}
}

func TestDeterministicSites(t *testing.T) {
	spec := Spec{Seed: 1, Rate: 0.2, Kinds: []Kind{KindError}}
	a, b := New(spec), New(spec)
	other := New(Spec{Seed: 2, Rate: 0.2, Kinds: []Kind{KindError}})
	ctx := context.Background()
	same, diff := 0, 0
	for i := 0; i < 2000; i++ {
		site := fmt.Sprintf("depth-point:organic:wire:d%d:bench%d", i%7+9, i)
		ea, eb := a.Inject(ctx, site), b.Inject(ctx, site)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("same seed disagrees at %s: %v vs %v", site, ea, eb)
		}
		if (ea == nil) != (other.Inject(ctx, site) == nil) {
			diff++
		} else {
			same++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical fault sites everywhere")
	}
	// Attempts draw independently: some site that faults at attempt 0
	// must pass at a later attempt.
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		site := fmt.Sprintf("width-point:silicon:fe%d:be%d", i%6+1, i)
		if a.Inject(ctx, site) != nil && a.Inject(WithAttempt(ctx, 1), site) == nil {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no faulted site recovered on attempt 1 (attempt not keyed into the draw?)")
	}
}

func TestRateBounds(t *testing.T) {
	in := New(Spec{Seed: 42, Rate: 0.3, Kinds: []Kind{KindError}})
	ctx := context.Background()
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if in.Inject(ctx, fmt.Sprintf("site:%d", i)) != nil {
			hits++
		}
	}
	if f := float64(hits) / n; f < 0.25 || f > 0.35 {
		t.Errorf("rate 0.3 hit %.3f of %d sites", f, n)
	}
}

func TestStageFilter(t *testing.T) {
	in := New(Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindError}, Stages: []string{"alu-point"}})
	ctx := context.Background()
	if err := in.Inject(ctx, "alu-point:organic:wire:n3"); !errors.Is(err, ErrInjected) {
		t.Fatalf("filtered-in site: %v", err)
	}
	if err := in.Inject(ctx, "depth-point:organic:wire:d9:x"); err != nil {
		t.Fatalf("filtered-out site fired: %v", err)
	}
}

func TestLatencyHonorsContext(t *testing.T) {
	in := New(Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindLatency}, Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Inject(ctx, "site:slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("latency injection ignored context cancellation")
	}
	// A short stall completes and returns nil.
	quick := New(Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindLatency}, Latency: time.Millisecond})
	if err := quick.Inject(context.Background(), "site:quick"); err != nil {
		t.Fatalf("short latency: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	in := New(Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindPanic}})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "injected panic") {
			t.Fatalf("recover() = %v", r)
		}
	}()
	in.Inject(context.Background(), "site:boom") //nolint:errcheck // panics
	t.Fatal("no panic")
}

// TestInjectionsCountOnRegistry: each firing counts once in its
// fault.{kind} metrics counter (the one tally /metricsz serves) and
// emits a fault.injected span whose site attribute gives the per-site
// detail. The registry is process-global, so counts are deltas.
func TestInjectionsCountOnRegistry(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	kinds := []string{"fault.error", "fault.latency", "fault.panic", "fault.kill"}
	before := map[string]int64{}
	for _, k := range kinds {
		before[k] = obs.Count(k)
	}
	in := New(Spec{Seed: 1, Rate: 1, Kinds: []Kind{KindError}})
	ctx := context.Background()
	sites := []string{"alu-point:n0", "alu-point:n1", "alu-point:n2", "server:/v1/simulate"}
	for _, site := range sites {
		in.Inject(ctx, site) //nolint:errcheck
	}
	for _, k := range kinds {
		want := int64(0)
		if k == "fault.error" {
			want = int64(len(sites))
		}
		if d := obs.Count(k) - before[k]; d != want {
			t.Errorf("%s grew by %d, want %d", k, d, want)
		}
	}
	var got []string
	for _, sp := range obs.Collect().Spans {
		if sp.Name != "fault.injected" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["kind"] != "error" {
			t.Errorf("span %v: kind %q, want error", sp.Attrs, attrs["kind"])
		}
		got = append(got, attrs["site"])
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(sites, " ") {
		t.Errorf("fault.injected span sites = %v, want %v", got, sites)
	}
}

func TestNilAndContextPlumbing(t *testing.T) {
	var nilInj *Injector
	if err := nilInj.Inject(context.Background(), "x"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if New(Spec{}) != nil {
		t.Fatal("New(disabled) != nil")
	}
	if got := AttemptFromContext(WithAttempt(context.Background(), 3)); got != 3 {
		t.Fatalf("attempt = %d", got)
	}
}
