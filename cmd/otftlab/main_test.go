package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-run this binary as the otftlab command: with
// OTFTLAB_TEST_MAIN=1 the process runs main on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("OTFTLAB_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLibHonorsLibCache: "otftlab lib" runs under the common flags, so
// -libcache persists the library it characterizes.
func TestLibHonorsLibCache(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the silicon library")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-libcache", dir, "lib", "silicon")
	cmd.Env = append(os.Environ(), "OTFTLAB_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("otftlab lib silicon: %v\n%.2000s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "silicon45.lib")); err != nil {
		t.Errorf("-libcache not honored: %v", err)
	}
}
