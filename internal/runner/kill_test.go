package runner

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestMain lets this test binary double as the crash victim for
// TestKillEscapesRunnerRecovery: with the env var set it runs a keyed
// sweep under kinds=kill chaos and must die instead of returning.
func TestMain(m *testing.M) {
	if os.Getenv("RUNNER_KILL_SUBPROCESS") == "1" {
		killVictim()
		os.Exit(0) // unreachable if the kill works
	}
	os.Exit(m.Run())
}

// killVictim runs a sweep whose every task draws a kill fault. A
// simulated hard crash is not a task failure: the process exits at the
// injection site, before the pool's panic recovery sees it.
func killVictim() {
	spec, err := fault.Parse("seed=1,rate=1,kinds=kill")
	if err != nil {
		os.Exit(3)
	}
	in := fault.New(spec)
	_, _ = Map(context.Background(), 4, func(ctx context.Context, i int) (int, error) {
		if err := in.Inject(ctx, "victim-point:test"); err != nil {
			return 0, err
		}
		return i, nil
	})
	// Reaching here means a recovery layer swallowed the Kill.
	os.Exit(4)
}

// TestKillEscapesRunnerRecovery re-executes this test binary as a
// subprocess and asserts an injected kill inside a pool task takes the
// whole process down with fault.KillExitCode, the way a real mid-run
// crash would.
func TestKillEscapesRunnerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(), "RUNNER_KILL_SUBPROCESS=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("subprocess survived an injected kill; output:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("subprocess failed oddly: %v", err)
	}
	switch ee.ExitCode() {
	case 3:
		t.Fatal("victim could not parse the kill spec")
	case 4:
		t.Fatal("a recovery layer absorbed the Kill; the process must crash")
	case fault.KillExitCode:
	default:
		t.Fatalf("subprocess exit status %d, want %d; output:\n%s", ee.ExitCode(), fault.KillExitCode, out)
	}
	if !strings.Contains(string(out), "fault: injected kill") {
		t.Errorf("crash output should name the kill site, got:\n%s", out)
	}
}
