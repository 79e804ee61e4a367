package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestMain lets this test binary double as the daemon of
// TestRouteInjectedKillPropagates: with the env var set it serves one
// computed request under a route-level kill fault and must die there.
func TestMain(m *testing.M) {
	if os.Getenv("SERVER_KILL_SUBPROCESS") == "1" {
		killVictim()
	}
	os.Exit(m.Run())
}

// killVictim serves over a real listener, as biodegd does, so net/http's
// per-connection panic recovery is on the path, and POSTs one
// simulation. The kill must end the process before the POST returns.
func killVictim() {
	spec, err := fault.Parse("seed=1,rate=1,kinds=kill,stages=server")
	if err != nil {
		os.Exit(3)
	}
	ts := httptest.NewServer(New(&fakeEngine{}, Options{Injector: fault.New(spec)}))
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(`{"bench":"dhrystone"}`))
	if err == nil {
		resp.Body.Close()
	}
	// Reaching here means the serving path survived the kill.
	os.Exit(4)
}

// TestRouteInjectedKillPropagates: a kill fault at the route site is a
// simulated hard crash, so it ends the serving process on its first
// computed request, with fault.KillExitCode and within a deadline,
// instead of leaving the request's flight open in a live daemon.
func TestRouteInjectedKillPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SERVER_KILL_SUBPROCESS=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("server still running after 30 s under a kill fault; output:\n%s", out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("server survived a route-level kill (%v); output:\n%s", err, out)
	}
	switch ee.ExitCode() {
	case 3:
		t.Fatal("victim could not parse the kill spec")
	case 4:
		t.Fatalf("the serving path absorbed the kill; output:\n%s", out)
	case fault.KillExitCode:
	default:
		t.Fatalf("server exit status %d, want %d; output:\n%s", ee.ExitCode(), fault.KillExitCode, out)
	}
	if !strings.Contains(string(out), "fault: injected kill at server:/v1/simulate") {
		t.Errorf("exit output should name the kill site, got:\n%s", out)
	}
}
