package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Registry is one coherent set of labeled metric families: counters,
// gauges, and fixed-bucket histograms. The process owns one Default()
// registry (what /metricsz and the CLI reports read).
//
// The hot path is lock-free in the same sense as the internal/obs
// tracer: a metric handle (*Counter, *Gauge, *Histogram) updates pure
// atomics, and resolving a handle from its vec is a sync.Map load —
// no mutex after a label set's first touch. Creating a family
// (Registry.Counter, ...) takes the registry mutex and should happen
// once, in a package var block or an init path, never per event.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// kinds of metric family, in Prometheus TYPE vocabulary.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with a fixed label schema. Series (one per
// distinct label-value tuple) live in a sync.Map so the resolve path is
// a lock-free load once the tuple exists.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds, nil otherwise
	series  sync.Map  // joined label values -> *Counter | *Gauge | *Histogram
}

// sep joins label values into a series key. 0x1f (unit separator)
// cannot appear in sane label values; values that do contain it would
// merely alias a series, never corrupt state.
const sep = "\x1f"

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register returns the named family, creating it on first use. A name
// re-registered with a different type or label schema panics: that is a
// programming error (two packages fighting over one name), not a
// runtime condition.
func (r *Registry) register(name, help, typ string, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: %q re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...)}
	r.families[name] = f
	return f
}

// with resolves (creating on first touch) the series for values.
func (f *family) with(mk func() any, values ...string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, sep)
	if s, ok := f.series.Load(key); ok {
		return s
	}
	s, _ := f.series.LoadOrStore(key, mk())
	return s
}

// snapshotKeys returns the series keys sorted, for deterministic
// exposition and Range order.
func (f *family) snapshotKeys() []string {
	var keys []string
	f.series.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}

// Reset drops every series of every family in the registry. The
// families themselves (names, help, schemas) survive, so handles
// resolved after Reset keep working; handles resolved before Reset
// keep counting into detached series that no longer appear in the
// exposition. Primarily for tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		f.series.Range(func(k, _ any) bool {
			f.series.Delete(k)
			return true
		})
	}
}

// Counter is a monotonically increasing count. All methods are atomic.
type Counter struct{ v atomic.Int64 }

// Inc adds one and returns the new count.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds n (negative n panics — counters only go up) and returns the
// new count.
func (c *Counter) Add(n int64) int64 {
	if n < 0 {
		panic("telemetry: counter decrement")
	}
	return c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a counter family; resolve a handle with With.
type CounterVec struct{ f *family }

// Counter registers (or returns) the named counter family on r.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, nil, labels)}
}

// With returns the counter for the given label values, creating it on
// first touch. Hot paths should resolve once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(func() any { return &Counter{} }, values...).(*Counter)
}

// Get returns the counter for the given label values without creating
// it; ok is false when the series has never been touched.
func (v *CounterVec) Get(values ...string) (*Counter, bool) {
	s, ok := v.f.series.Load(strings.Join(values, sep))
	if !ok {
		return nil, false
	}
	return s.(*Counter), true
}

// Range calls fn for every series in deterministic (sorted) order.
func (v *CounterVec) Range(fn func(labelValues []string, c *Counter)) {
	for _, k := range v.f.snapshotKeys() {
		if s, ok := v.f.series.Load(k); ok {
			fn(splitKey(k, len(v.f.labels)), s.(*Counter))
		}
	}
}

// Reset drops every series of this family (see Registry.Reset for the
// handle semantics).
func (v *CounterVec) Reset() { resetFamily(v.f) }

// Gauge is a value that can go up and down. All methods are atomic.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a gauge family; resolve a handle with With.
type GaugeVec struct{ f *family }

// Gauge registers (or returns) the named gauge family on r.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, nil, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(func() any { return &Gauge{} }, values...).(*Gauge)
}

// Range calls fn for every series in deterministic (sorted) order.
func (v *GaugeVec) Range(fn func(labelValues []string, g *Gauge)) {
	for _, k := range v.f.snapshotKeys() {
		if s, ok := v.f.series.Load(k); ok {
			fn(splitKey(k, len(v.f.labels)), s.(*Gauge))
		}
	}
}

// Reset drops every series of this family.
func (v *GaugeVec) Reset() { resetFamily(v.f) }

// Histogram accumulates observations into fixed buckets. Observations,
// the sum, and the max are all pure atomics; float adds use a CAS loop
// on the bit pattern.
type Histogram struct {
	bounds  []float64 // shared, immutable upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
	maxBits atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) = +Inf
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 before any observation).
// Max is not part of the Prometheus exposition — it feeds the
// human-readable per-stage report (obs.StageReport).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Buckets returns the per-bucket (non-cumulative) observation counts;
// slot i counts observations <= bounds[i], the last slot counts the
// overflow into +Inf.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Bounds returns the histogram's upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// HistogramVec is a histogram family; resolve a handle with With.
type HistogramVec struct{ f *family }

// Histogram registers (or returns) the named histogram family on r
// with the given upper bounds, which must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: %q buckets not strictly increasing: %v", name, buckets))
		}
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, buckets, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(func() any { return newHistogram(v.f.buckets) }, values...).(*Histogram)
}

// Get returns the histogram for the given label values without
// creating it; ok is false when the series has never been touched.
func (v *HistogramVec) Get(values ...string) (*Histogram, bool) {
	s, ok := v.f.series.Load(strings.Join(values, sep))
	if !ok {
		return nil, false
	}
	return s.(*Histogram), true
}

// Range calls fn for every series in deterministic (sorted) order.
func (v *HistogramVec) Range(fn func(labelValues []string, h *Histogram)) {
	for _, k := range v.f.snapshotKeys() {
		if s, ok := v.f.series.Load(k); ok {
			fn(splitKey(k, len(v.f.labels)), s.(*Histogram))
		}
	}
}

// Reset drops every series of this family.
func (v *HistogramVec) Reset() { resetFamily(v.f) }

func resetFamily(f *family) {
	f.series.Range(func(k, _ any) bool {
		f.series.Delete(k)
		return true
	})
}

// splitKey recovers the label values from a series key. n guards the
// zero-label case, where the key is "" and Split would return [""].
func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, sep, n)
}

// DurationBuckets are the power-of-ten duration bounds (in seconds,
// 10 us .. 1000 s) the per-stage wall-time histograms use — the
// decades the per-stage text report (obs.StageReport) prints.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000,
}

// LatencyBuckets are conventional HTTP request-latency bounds in
// seconds (the Prometheus client_golang defaults), used for the
// server's per-route histograms.
var LatencyBuckets = []float64{
	.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}
