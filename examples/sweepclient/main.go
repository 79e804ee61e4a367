// Sweepclient drives a running biodegd daemon over HTTP: it lists the
// experiment registry, requests a reduced ALU-depth sweep twice (the
// second response returns from the daemon's cache), and runs one
// benchmark through the cycle-level core model — all through the
// versioned wire types of biodeg/api, with no import of the simulation
// packages themselves.
//
// The client is a polite citizen of a loaded daemon: when a request is
// shed (429, admission semaphore full) or answered 503 (it joined a
// computation whose leading client disconnected, so a retry leads a
// fresh one), it honors the Retry-After header — in either of its
// RFC 9110 forms, delay-seconds or an HTTP-date — capped per sleep,
// with an exponential-backoff fallback when the header is absent, and
// retries up to maxRetries times within the -max-wait total budget
// before giving up.
//
// Start the daemon first, then point the client at it:
//
//	go run ./cmd/biodegd -addr localhost:8080 &
//	go run ./examples/sweepclient [-max-wait 1m] [-log-format json] http://localhost:8080
//
// Diagnostics (retry notices, fatal errors) go through log/slog on
// stderr; -log-format json switches them to one JSON object per line.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/biodeg/api"
)

const (
	// maxRetries bounds re-sends of one request after 429/503 responses.
	maxRetries = 5
	// maxRetryAfter caps how long a single Retry-After hint can make the
	// client sleep, so a confused server cannot park it for minutes.
	maxRetryAfter = 10 * time.Second
)

// maxWait is the total retry budget across all requests: once the
// client has spent this long sleeping on 429/503 backoff, the next
// overload response is fatal instead of retried.
var maxWait = flag.Duration("max-wait", time.Minute, "total time budget for 429/503 retry sleeps before giving up")

// logFormat selects the diagnostic log encoding on stderr.
var logFormat = flag.String("log-format", "text", "diagnostic log encoding: text or json")

// fatal logs msg and its attrs at error level and exits non-zero.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// waited accumulates backoff sleeps against the -max-wait budget.
var waited time.Duration

func main() {
	flag.Parse()
	if *logFormat == "json" {
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	} else if *logFormat != "text" {
		fatal("unknown -log-format", "format", *logFormat)
	}
	base := "http://localhost:8080"
	if flag.NArg() > 0 {
		base = flag.Arg(0)
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	var reg api.ExperimentList
	get(client, base+"/v1/experiments", &reg)
	fmt.Printf("daemon serves %d experiments (%s wire format)\n", len(reg.Experiments), reg.Version)

	req := api.SweepRequest{Tech: "organic", MaxStages: 4}
	for attempt := 1; attempt <= 2; attempt++ {
		var res api.SweepResult
		cacheState := post(client, base+"/v1/sweeps/"+api.SweepALUDepth, req, &res)
		fmt.Printf("\nALU sweep attempt %d (%s):\n", attempt, cacheState)
		for _, p := range res.ALU {
			if p.Err != "" {
				fmt.Printf("  %d stages: FAILED (%s)\n", p.Stages, p.Err)
				continue
			}
			fmt.Printf("  %d stages: %8.3f Hz, %6.2f cm^2\n", p.Stages, p.FreqHz, p.AreaM2*1e4)
		}
	}

	var sim api.SimulateResult
	post(client, base+"/v1/simulate", api.SimulateRequest{
		Bench:  "dhrystone",
		Config: &api.CoreConfig{FrontWidth: 4, BackWidth: 6},
	}, &sim)
	fmt.Printf("\n%s on a 4-wide core: IPC %.3f over %d instructions (%.1f MPKI)\n",
		sim.Bench, sim.Stats.IPC, sim.Stats.Instrs, sim.Stats.MPKI)
}

func get(client *http.Client, url string, out any) {
	doWithRetry(url, out, func() (*http.Response, error) {
		return client.Get(url)
	})
}

// post sends v and decodes the response into out, returning the
// daemon's X-Biodeg-Cache verdict (hit, miss, or coalesced).
func post(client *http.Client, url string, v, out any) string {
	body, err := json.Marshal(v)
	if err != nil {
		fatal("encoding request", "err", err)
	}
	resp := doWithRetry(url, out, func() (*http.Response, error) {
		return client.Post(url, "application/json", bytes.NewReader(body))
	})
	return resp.Header.Get("X-Biodeg-Cache")
}

// doWithRetry issues send() until the response is not a retryable
// signal (429 shed, 503 disconnected leader), sleeping per Retry-After
// between tries, then decodes it into out. Retrying stops when the
// attempt count or the -max-wait sleep budget runs out; non-retryable
// failures are fatal.
func doWithRetry(url string, out any, send func() (*http.Response, error)) *http.Response {
	for attempt := 0; ; attempt++ {
		resp, err := send()
		if err != nil {
			fatal("request failed (is biodegd running?)", "url", url, "err", err)
		}
		if retryable(resp.StatusCode) && attempt < maxRetries {
			d := retryDelay(resp, attempt)
			if waited+d > *maxWait {
				resp.Body.Close()
				fatal("retry budget exhausted", "url", url, "status", resp.StatusCode,
					"slept", waited.String(), "max_wait", maxWait.String())
			}
			waited += d
			resp.Body.Close()
			slog.Warn("overloaded, retrying", "url", url, "status", resp.StatusCode,
				"sleep", d.String(), "attempt", attempt+1, "max_retries", maxRetries)
			time.Sleep(d)
			continue
		}
		decodeResponse(resp, url, out)
		return resp
	}
}

func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryDelay reads the Retry-After header in either RFC 9110 form —
// delay-seconds or an HTTP-date (a past date means retry now, so it
// falls through to backoff) — capped at maxRetryAfter; without a usable
// header it falls back to capped exponential backoff from 250ms.
func retryDelay(resp *http.Response, attempt int) time.Duration {
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		if d > maxRetryAfter {
			d = maxRetryAfter
		}
		if d > 0 {
			return d
		}
	}
	d := 250 * time.Millisecond << attempt
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// parseRetryAfter interprets a Retry-After header value: delay-seconds
// ("120") or an HTTP-date in any format http.ParseTime accepts
// (RFC 1123 "Mon, 02 Jan 2006 15:04:05 GMT", RFC 850, or asctime),
// relative to now. ok is false for an empty or malformed value.
func parseRetryAfter(s string, now time.Time) (time.Duration, bool) {
	if s == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(s); err == nil {
		return t.Sub(now), true
	}
	return 0, false
}

func decodeResponse(resp *http.Response, url string, out any) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal("reading response", "url", url, "err", err)
	}
	if resp.StatusCode != http.StatusOK {
		// The daemon's non-2xx responses carry the versioned problem+json
		// envelope: a stable code, the message, and a retry hint.
		if e, ok := api.ParseError(b); ok {
			fatal("daemon error", "url", url, "status", resp.StatusCode,
				"code", e.Code, "message", e.Message)
		}
		fatal("daemon error", "url", url, "status", resp.StatusCode, "body", string(b))
	}
	if err := json.Unmarshal(b, out); err != nil {
		fatal("parsing response", "url", url, "err", err)
	}
}
