package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
)

// tracePass is the per-layer run behind --trace 1. It is the same for
// every workload, so each traced run reports every per-layer metric:
//
//   - one cold `replicate -jsonl` run, whose spans give each stage's self
//     time, the runner queue wait and the time experiments sit blocked
//     on library characterization;
//   - one warm run without and one with tracing: the warm stage times,
//     and the tracing overhead as the ratio of their wall times;
//   - one serve-mixed window, split by the daemon's cache outcome;
//   - the layer ledger, which calls each layer's public functions
//     directly with the inputs the workloads use.
//
// End-to-end metrics never come from this pass.
func tracePass(ctx context.Context, e *env, o options, t *tally) error {
	libcache, err := e.dir("libcache")
	if err != nil {
		return err
	}
	_, cold, identical, err := e.traced(ctx, libcache, o.only, "cold", t)
	if err != nil {
		return err
	}
	plain, _, err := e.replicate(ctx, libcache, o.only, "")
	if !t.op(err) {
		return err
	}
	tracedWall, warm, _, err := e.traced(ctx, libcache, o.only, "warm", t)
	if err != nil {
		return err
	}
	// Caching the libraries must not change which points simulate.
	if cold.count["ipc"] != warm.count["ipc"] {
		t.op(fmt.Errorf("cold run simulated %d IPC points, warm run %d", cold.count["ipc"], warm.count["ipc"]))
	}
	for _, run := range []struct {
		name string
		p    profile
	}{{"cold", cold}, {"warm", warm}} {
		for _, stage := range []string{"ipc", "sta", "pipeline"} {
			t.set("trace."+run.name+"."+stage+"_s", run.p.self[stage].Seconds(), run.p.count[stage])
		}
		t.set("trace."+run.name+".runner_queue_wait_s", run.p.queueWait.Seconds(), run.p.count["runner.task"])
	}
	t.set("trace.cold.characterize_s", (cold.self["characterize"] + cold.self["characterize-library"]).Seconds(),
		cold.count["characterize"]+cold.count["characterize-library"])
	t.set("trace.cold.char_blocked_s", cold.charBlocked.Seconds(), cold.count["experiment"])
	t.set("trace.ipc_count", float64(cold.count["ipc"]), 1)
	t.set("trace.overhead_pct", 100*tracedWall.Seconds()/plain.wall.Seconds(), 1)
	t.set("check.identical_tables", float64(identical), 1)

	srv, err := serve(ctx, e, o, t)
	if err != nil {
		return err
	}
	t.set("server.hit_p50_ms", median(srv.hit), len(srv.hit))
	t.set("server.miss_p50_ms", median(srv.miss), len(srv.miss))
	t.set("server.sweep_p50_ms", median(srv.swp), len(srv.swp))
	t.set("server.cache_hit_ratio", float64(len(srv.hit))/float64(len(srv.all)), len(srv.all))

	return e.ledger(ctx, srv.libcache, t)
}

// traced runs one checked `replicate -jsonl` and reads its span profile.
// It returns the run's wall time, the profile and how many tables
// matched the reference bit for bit.
func (e *env) traced(ctx context.Context, libcache string, only []string, name string, t *tally) (time.Duration, profile, int, error) {
	path := filepath.Join(e.scratch, name+".jsonl")
	u, identical, err := e.replicate(ctx, libcache, only, path)
	if !t.op(err) {
		return 0, profile{}, 0, err
	}
	p, err := readProfile(path)
	if !t.op(err) {
		return 0, profile{}, 0, err
	}
	return u.wall, p, identical, nil
}

// ledger runs the layer ledger against a filled lib cache and records
// its rows. The lib cache is passed as -libcache on the ledger's command
// line because cells.Library reads only the process default
// configuration, never a session's.
func (e *env) ledger(ctx context.Context, libcache string, t *tally) error {
	out, _, err := e.exec(ctx, "ledger", nil, "-workers", workers, "-libcache", libcache, "layers")
	if !t.op(err) {
		return err
	}
	var rows map[string]struct {
		Value float64 `json:"value"`
		N     int     `json:"n"`
	}
	if err := json.Unmarshal(out, &rows); err != nil {
		return fmt.Errorf("ledger output: %w", err)
	}
	for _, m := range ledgerMetrics {
		r, ok := rows[m.name]
		if !ok {
			return fmt.Errorf("ledger reported no %s", m.name)
		}
		t.set(m.name, r.Value, r.N)
	}
	return nil
}

// profile is where one traced run spent its time.
type profile struct {
	// self is the summed self time per span name: each span's duration
	// minus the part of it its child spans cover.
	self  map[string]time.Duration
	count map[string]int
	// queueWait sums the runner.task spans' queue_wait_us attributes.
	queueWait time.Duration
	// charBlocked sums, over experiment spans, the time each is open
	// while a characterize-library span is open.
	charBlocked time.Duration
}

// readProfile reads a `-jsonl` trace. A trace that dropped spans or
// lacks its summary line cannot be attributed and is an error.
func readProfile(path string) (profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return profile{}, err
	}
	spans, dropped, err := obs.ReadJSONL(bytes.NewReader(b))
	if err != nil {
		return profile{}, fmt.Errorf("%s: %w", path, err)
	}
	// ReadJSONL also accepts a file cut short between lines, so the last
	// line must be the summary and count every span read.
	var sum struct {
		Event string `json:"event"`
		Spans int    `json:"spans"`
	}
	b = bytes.TrimSpace(b)
	last := b[bytes.LastIndexByte(b, '\n')+1:]
	if json.Unmarshal(last, &sum) != nil || sum.Event != "summary" || sum.Spans != len(spans) {
		return profile{}, fmt.Errorf("%s: no summary line for its %d spans; the trace is truncated", path, len(spans))
	}
	if dropped != 0 {
		return profile{}, fmt.Errorf("%s: %d spans dropped", path, dropped)
	}
	return profileOf(spans)
}

// profileOf attributes a span list. A span's children are the spans
// naming it as parent. characterize-library spans have no parent: the
// cells package starts them from context.Background(), so they are
// roots, and an experiment waiting on one counts that wait as its own
// self time; charBlocked measures it.
func profileOf(spans []obs.SpanRecord) (profile, error) {
	if len(spans) == 0 {
		return profile{}, errors.New("trace holds no spans")
	}
	p := profile{self: map[string]time.Duration{}, count: map[string]int{}}
	children := map[uint64][]interval{}
	var libs []interval
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], intervalOf(s))
		}
		if s.Name == "characterize-library" {
			libs = append(libs, intervalOf(s))
		}
	}
	libs = merge(libs)
	for _, s := range spans {
		iv := intervalOf(s)
		p.self[s.Name] += s.Dur - covered(children[s.ID], iv)
		p.count[s.Name]++
		switch s.Name {
		case "experiment":
			p.charBlocked += covered(libs, iv)
		case "runner.task":
			for _, a := range s.Attrs {
				if a.Key == "queue_wait_us" {
					us, err := strconv.ParseInt(a.Value, 10, 64)
					if err != nil {
						return profile{}, fmt.Errorf("span %d: queue_wait_us: %w", s.ID, err)
					}
					p.queueWait += time.Duration(us) * time.Microsecond
				}
			}
		}
	}
	return p, nil
}

// interval is a half-open [lo, hi) stretch of trace time.
type interval struct{ lo, hi time.Duration }

func intervalOf(s obs.SpanRecord) interval { return interval{s.Start, s.Start + s.Dur} }

// merge returns the union of ivs as sorted, disjoint intervals.
func merge(ivs []interval) []interval {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of within the union of ivs covers.
func covered(ivs []interval, within interval) time.Duration {
	var total time.Duration
	for _, iv := range merge(ivs) {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}
