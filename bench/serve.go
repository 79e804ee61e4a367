package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// clients is the closed loop's connection count: each sends its next
	// request only after the previous response is read, one per vCPU.
	clients = 2
	// recentSims is how many of the latest simulate bodies a repeat
	// draws from; the daemon's response cache holds 256.
	recentSims = 64
	// resimShare is the seeded share of new simulates re-simulated
	// in-process after the window and compared exactly.
	resimShare = 0.05
)

// benches are the seven workload kernels, and instrs the dynamic
// instruction count of each: fixed by the kernels' generators, so every
// simulate response must report exactly this count.
var (
	benches = []string{"bzip", "gap", "gzip", "mcf", "parser", "vortex", "dhrystone"}
	instrs  = map[string]uint64{
		"bzip": 311401, "gap": 520008, "gzip": 241179, "mcf": 494791,
		"parser": 166515, "vortex": 141985, "dhrystone": 540402,
	}
)

// The simulate tuple space: bench x front width 1-6 x back width 3-7 x
// front stages 2-12 x predictor bits 6-14. New simulates draw from it
// without replacement. At the ~85 new simulates per second measured on
// 2 vCPUs a window needs about four minutes to send them all; if one
// does, it ends there (see traffic.next).
const tupleSpace = 7 * 6 * 5 * 11 * 9

type coreConfig struct {
	FrontWidth  int `json:"front_width"`
	BackWidth   int `json:"back_width"`
	FrontStages int `json:"front_stages"`
	PredBits    int `json:"pred_bits"`
}

type simulateBody struct {
	Bench  string     `json:"bench"`
	Config coreConfig `json:"config"`
}

func tupleBody(i int) []byte {
	s := simulateBody{Bench: benches[i%7]}
	i /= 7
	s.Config.FrontWidth = 1 + i%6
	i /= 6
	s.Config.BackWidth = 3 + i%5
	i /= 5
	s.Config.FrontStages = 2 + i%11
	s.Config.PredBits = 6 + i/11
	b, _ := json.Marshal(s) // cannot fail: plain struct
	return b
}

// Request kinds of the serve-mixed traffic. The shares are an assumption,
// not a recorded traffic pattern: the repository has none (its only
// client, examples/sweepclient, sends one sweep twice and one simulate).
// Cache hits and sweeps take under a millisecond, so these shares put
// both the median and the 99th percentile inside the uncached simulates,
// where engine work decides them. The end-to-end numbers still move with
// the mix, so a claim on serve-mixed also reports the per-class
// server.miss_p50_ms and server.hit_p50_ms, which do not.
const (
	kindNew    = "new"    // 65%: a simulate tuple never sent before
	kindRepeat = "repeat" // 25%: one of the last recentSims simulate bodies
	kindSweep  = "sweep"  // 10%: an ALU-depth sweep, random tech and depth
)

type request struct {
	seq  int
	kind string
	path string
	body []byte
}

// traffic draws the seeded request sequence; the clients share it.
type traffic struct {
	mu     sync.Mutex
	rng    *rand.Rand
	tuples []int
	sims   [][]byte // simulate bodies sent so far
	seq    int
}

func newTraffic(seed uint64) *traffic {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	return &traffic{rng: rng, tuples: rng.Perm(tupleSpace)}
}

// next draws the next request. It reports false once every simulate
// tuple has been sent: the window then ends rather than change the mix.
func (g *traffic) next() (request, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sims) == tupleSpace {
		return request{}, false
	}
	g.seq++
	u := g.rng.Float64()
	switch {
	case u >= 0.90:
		tech := []string{"organic", "silicon"}[g.rng.IntN(2)]
		body := fmt.Sprintf(`{"tech":%q,"max_stages":%d}`, tech, 4+g.rng.IntN(27))
		return request{g.seq, kindSweep, "/v1/sweeps/alu-depth", []byte(body)}, true
	case u >= 0.65 && len(g.sims) > 0:
		body := g.sims[len(g.sims)-1-g.rng.IntN(min(recentSims, len(g.sims)))]
		return request{g.seq, kindRepeat, "/v1/simulate", body}, true
	}
	body := tupleBody(g.tuples[len(g.sims)])
	g.sims = append(g.sims, body)
	return request{g.seq, kindNew, "/v1/simulate", body}, true
}

// response is one completed request.
type response struct {
	request
	status  int
	cache   string // X-Biodeg-Cache
	latency time.Duration
	reply   []byte
	err     error
}

// serveResult is one serve-mixed window's outcome. Latencies are in ms
// and cover successful requests only; failures are counted in the tally.
type serveResult struct {
	libcache string // the filled lib cache the daemon ran on
	setup    time.Duration
	// all holds every request; hit the response-cache hits, swp the
	// uncached sweeps and miss the uncached simulates.
	all, hit, miss, swp []float64
	elapsed             time.Duration
	cpu                 time.Duration // daemon CPU during the window
	rssMB               float64       // daemon peak RSS over its life
}

// runServeMixed is the serve-mixed workload's end-to-end run.
func runServeMixed(ctx context.Context, e *env, o options, t *tally) error {
	r, err := serve(ctx, e, o, t)
	if err != nil {
		return err
	}
	n := len(r.all)
	t.set("setup_s", r.setup.Seconds(), 1)
	t.set("ops_per_s", float64(n)/r.elapsed.Seconds(), n)
	t.set("cpu_ms_per_op", ms(r.cpu)/float64(n), n)
	t.set("peak_rss_mb", r.rssMB, 1)
	t.set("latency_p99_ms", percentile(r.all, 0.99), n)
	t.set("latency_p50_ms", median(r.all), n)
	return nil
}

// serve fills a lib cache, boots a fresh biodegd on it, drives the
// seeded closed-loop mix for the window, stops the daemon, and checks
// every response. A fresh daemon per run matters: a second window
// against the same process hits its in-process IPC memo.
func serve(ctx context.Context, e *env, o options, t *tally) (*serveResult, error) {
	start := time.Now()
	libcache, err := e.dir("libcache")
	if err != nil {
		return nil, err
	}
	t.attempted++
	if err := e.fill(ctx, libcache); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	d, err := startDaemon(ctx, e, libcache)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	r := &serveResult{libcache: libcache, setup: time.Since(start)}

	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	resps, elapsed := drive(ctx, d.url, newTraffic(o.seed), o.window)
	if elapsed < o.window && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "bench: serve-mixed: all %d simulate tuples sent; the window ended after %v\n", tupleSpace, elapsed)
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	r.cpu, r.elapsed = cpu1-cpu0, elapsed
	if r.rssMB, err = d.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fig12, err := e.ref.aluFreqs()
	if err != nil {
		return nil, err
	}
	first := map[string][]byte{}
	var fresh []response
	for _, resp := range resps {
		if !t.op(checkResponse(resp, first, fig12)) {
			continue
		}
		lat := ms(resp.latency)
		r.all = append(r.all, lat)
		switch {
		case resp.cache == "hit":
			r.hit = append(r.hit, lat)
		case resp.kind == kindSweep:
			r.swp = append(r.swp, lat)
		case resp.cache == "miss":
			r.miss = append(r.miss, lat)
		}
		if resp.kind == kindNew {
			fresh = append(fresh, resp)
		}
	}
	if len(r.all) == 0 {
		return nil, errors.New("every request failed")
	}
	return r, e.resim(ctx, o.seed, fresh, t)
}

// drive runs the closed loop until the window has passed, or the traffic
// has run out of new simulates, and returns every response with the time
// from the first send to the last reply.
func drive(ctx context.Context, url string, g *traffic, window time.Duration) ([]response, time.Duration) {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   time.Minute,
	}
	defer client.CloseIdleConnections()
	start := time.Now()
	per := make([][]response, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := range per {
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window && ctx.Err() == nil {
				req, ok := g.next()
				if !ok {
					return
				}
				per[c] = append(per[c], send(ctx, client, url, req))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := slices.Concat(per...)
	slices.SortFunc(all, func(a, b response) int { return a.seq - b.seq })
	return all, elapsed
}

// send issues one request and times it from send to the last body byte.
func send(ctx context.Context, client *http.Client, url string, req request) response {
	r := response{request: req}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+req.path, bytes.NewReader(req.body))
	if err != nil {
		r.err = err
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		r.err = err
		return r
	}
	r.reply, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	r.status, r.cache = resp.StatusCode, resp.Header.Get("X-Biodeg-Cache")
	return r
}

// checkResponse verifies one response: 2xx; a simulate reports the
// kernel's fixed instruction count and is byte-identical to every other
// response for the same body; a sweep has one error-free point per
// stage whose frequency matches the reference fig12 table.
func checkResponse(r response, first map[string][]byte, fig12 map[string][]float64) error {
	if r.err != nil {
		return fmt.Errorf("POST %s %s: %w", r.path, r.body, r.err)
	}
	if r.status/100 != 2 {
		return fmt.Errorf("POST %s %s: status %d: %s", r.path, r.body, r.status, r.reply)
	}
	if prev, ok := first[string(r.body)]; ok && !bytes.Equal(prev, r.reply) {
		return fmt.Errorf("POST %s %s: response differs from the first one for this body", r.path, r.body)
	}
	first[string(r.body)] = r.reply
	if r.kind == kindSweep {
		return checkSweep(r, fig12)
	}
	var sim struct {
		Bench string `json:"bench"`
		Stats struct {
			Instrs uint64  `json:"instrs"`
			IPC    float64 `json:"ipc"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(r.reply, &sim); err != nil {
		return fmt.Errorf("POST %s %s: %w", r.path, r.body, err)
	}
	if want := instrs[sim.Bench]; sim.Stats.Instrs != want || !(sim.Stats.IPC > 0) {
		return fmt.Errorf("POST %s %s: %d instructions at IPC %v, want %d", r.path, r.body, sim.Stats.Instrs, sim.Stats.IPC, want)
	}
	return nil
}

func checkSweep(r response, fig12 map[string][]float64) error {
	var req struct {
		MaxStages int `json:"max_stages"`
	}
	var sw struct {
		Tech   string `json:"tech"`
		Points []struct {
			Stages int     `json:"stages"`
			Period float64 `json:"period_s"`
			Freq   float64 `json:"freq_hz"`
			Area   float64 `json:"area_m2"`
			Err    string  `json:"error"`
		} `json:"alu_points"`
	}
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(r.reply, &sw); err != nil {
		return fmt.Errorf("POST %s %s: %w", r.path, r.body, err)
	}
	ref := fig12[sw.Tech]
	if len(sw.Points) != req.MaxStages || len(ref) < req.MaxStages {
		return fmt.Errorf("POST %s %s: %d points for tech %q, want %d", r.path, r.body, len(sw.Points), sw.Tech, req.MaxStages)
	}
	for i, p := range sw.Points {
		want := ref[i]
		if p.Err != "" || p.Stages != i+1 || !finite(p.Period) || !(p.Area > 0) || math.Abs(p.Freq-want) > relTol*want {
			return fmt.Errorf("POST %s %s: point %d = %+v, reference frequency %v", r.path, r.body, i+1, p, want)
		}
	}
	return nil
}

// aluFreqs returns the reference fig12 absolute ALU frequency per stage
// count, keyed by the technology name sweeps report.
func (r reference) aluFreqs() (map[string][]float64, error) {
	freqs := map[string][]float64{}
	for _, tech := range []string{"silicon45", "organic"} {
		f, err := column(r.byID["fig12"], "fig12: "+tech, "abs freq (Hz)")
		if err != nil {
			return nil, err
		}
		freqs[tech] = f
	}
	return freqs, nil
}

// resim re-simulates a seeded resimShare of the new simulates through
// the ledger binary, which calls the uncached IPC path in-process, and
// requires each result to equal the daemon's byte for byte.
func (e *env) resim(ctx context.Context, seed uint64, fresh []response, t *tally) error {
	rng := rand.New(rand.NewPCG(seed, 0x7e51))
	var sample []response
	for _, r := range fresh {
		if rng.Float64() < resimShare {
			sample = append(sample, r)
		}
	}
	if len(sample) == 0 && len(fresh) > 0 {
		sample = fresh[len(fresh)-1:]
	}
	if len(sample) == 0 {
		return nil
	}
	var in bytes.Buffer
	for _, r := range sample {
		in.Write(r.body)
		in.WriteByte('\n')
	}
	out, _, err := e.exec(ctx, "ledger", in.Bytes(), "-workers", workers, "resim")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for _, r := range sample {
		var got []byte
		if sc.Scan() {
			got = sc.Bytes()
		}
		var resp struct {
			Stats json.RawMessage `json:"stats"`
		}
		err := json.Unmarshal(r.reply, &resp)
		if err == nil && !bytes.Equal(resp.Stats, got) {
			err = fmt.Errorf("re-simulating %s gives %s, the daemon served %s", r.body, got, resp.Stats)
		}
		t.op(err)
	}
	return sc.Err()
}

// daemon is one running biodegd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
	once sync.Once
	rss  float64
	err  error
}

// startDaemon boots biodegd on a free loopback port and waits until
// /healthz reports ok.
func startDaemon(ctx context.Context, e *env, libcache string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(e.scratch, "biodegd-"+strings.ReplaceAll(addr, ":", "-")+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "biodegd"), "-addr", addr, "-libcache", libcache, "-workers", workers)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Status == "ok" {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("biodegd exited during boot: %v (log %s)", d.err, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("biodegd not healthy after 30 s (log %s)", logf.Name())
		}
	}
}

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (utime and stime, in 1/100 s clock ticks).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// stop drains the daemon with SIGTERM (SIGKILL after 20 s), waits for
// it to exit, and returns its peak RSS in MB. Repeated calls return the
// first call's outcome.
func (d *daemon) stop() (float64, error) {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		if d.err != nil {
			d.err = fmt.Errorf("biodegd: %w", d.err)
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rss = float64(ru.Maxrss) / 1024
		}
	})
	return d.rss, d.err
}
