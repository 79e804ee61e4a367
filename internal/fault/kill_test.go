package fault

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets this test binary double as the victim of
// TestKillKindExitsProcess: with the env var set it draws a kill fault,
// which must end the process at the injection site.
func TestMain(m *testing.M) {
	if os.Getenv("FAULT_KILL_SUBPROCESS") == "1" {
		spec, err := Parse("seed=3,rate=1,kinds=kill")
		if err != nil {
			os.Exit(3)
		}
		New(spec).Inject(context.Background(), "depth-point:test") //nolint:errcheck // exits
		// Reaching here means the kill returned.
		os.Exit(4)
	}
	os.Exit(m.Run())
}

// TestKillKindExitsProcess: a kill injection exits the process with
// KillExitCode, after writing a line that names the site and attempt.
func TestKillKindExitsProcess(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "FAULT_KILL_SUBPROCESS=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != KillExitCode {
		t.Fatalf("victim ended with %v, want exit status %d; output:\n%s", err, KillExitCode, out)
	}
	if want := "fault: injected kill at depth-point:test (attempt 0)\n"; string(out) != want {
		t.Errorf("victim output %q, want %q", out, want)
	}
}

func TestKillNotInDefaultKinds(t *testing.T) {
	// A bare rate spec must never choose kill: simulated hard crashes
	// are strictly opt-in.
	spec, err := Parse("seed=1,rate=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range spec.Kinds {
		if k == KindKill {
			t.Fatal("kill must not be a default kind")
		}
	}
	// And the spec syntax round-trips it when asked for.
	spec2, err := Parse("seed=1,rate=0.5,kinds=error+kill")
	if err != nil {
		t.Fatal(err)
	}
	if s := spec2.String(); !strings.Contains(s, "kill") {
		t.Errorf("String() = %q lost the kill kind", s)
	}
}
