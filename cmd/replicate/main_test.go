package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/biodeg"
	"repro/internal/liberty"
)

// TestMain lets a test re-run this binary as the replicate command:
// with REPLICATE_TEST_MAIN=1 the process runs main on its arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("REPLICATE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// replicate runs the command with args and returns its stdout, its
// stderr and its exit code.
func replicate(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPLICATE_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestLibHonorsLibCache: "replicate -lib" runs under the common flags,
// so -libcache persists the library it characterizes, and its stdout
// is that library in Synopsys syntax.
func TestLibHonorsLibCache(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the silicon library")
	}
	dir := t.TempDir()
	stdout, stderr, code := replicate(t, "-libcache", dir, "-lib", "silicon")
	if code != 0 {
		t.Fatalf("replicate -lib silicon: exit %d\n%.2000s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "silicon45.lib")); err != nil {
		t.Errorf("-libcache not honored: %v", err)
	}
	var want bytes.Buffer
	if err := liberty.WriteSynopsys(&want, biodeg.Library(biodeg.Silicon())); err != nil {
		t.Fatal(err)
	}
	if stdout != want.String() {
		t.Errorf("-lib silicon stdout (%d bytes) differs from liberty.WriteSynopsys of the silicon library (%d bytes)",
			len(stdout), want.Len())
	}
}

// TestUsageErrorsExit2: a bad -lib technology or -only ID exits 2 and
// names the valid values, before any experiment or characterization
// runs (so stdout stays empty).
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"lib", []string{"-lib", "silcon"}, []string{`"silcon"`, "organic, silicon"}},
		{"only", []string{"-only", "fig3,nosuch"}, []string{`"nosuch"`, "fig3", "absfreq"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := replicate(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("wrote %d bytes to stdout, want none", len(stdout))
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not name %s", stderr, w)
				}
			}
		})
	}
}
