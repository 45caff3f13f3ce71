package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain runs main itself when the test binary is re-executed with
// MRSIM_MAIN set, so a test can observe the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("MRSIM_MAIN") != "" {
		os.Args = append([]string{"mrsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadPolicyDoesNoWork: an unknown -policy, -system or -strategy
// fails before the pipeline is built, so the design cache gets no entry.
func TestBadPolicyDoesNoWork(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-system", "bogus"},
		{"-system", "vfi-winoc", "-strategy", "bogus"},
	} {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], append([]string{"-cache", dir}, args...)...)
		cmd.Env = append(os.Environ(), "MRSIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("mrsim %v: err %v, want a non-zero exit; output:\n%s", args, err, out)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("mrsim %v wrote %d design-cache entries", args, len(entries))
		}
	}
}
