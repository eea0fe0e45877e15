package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"khsim/internal/harness"
)

// TestMain lets a test run the khsim command in a child process: with
// KHSIM_MAIN_ARGS set, the test binary runs main on those
// space-separated arguments instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("KHSIM_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"khsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestArtifactToRedirectedStdout runs `khsim migrate -artifact
// /dev/stdout` with stdout redirected to a file. The file must hold the
// artifact followed by the report, the bytes a pipe receives, not the
// report written over the artifact's head.
func TestArtifactToRedirectedStdout(t *testing.T) {
	r, err := harness.RunMigrationSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Artifact() + r.String()

	out, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "KHSIM_MAIN_ARGS=migrate -seed 1 -artifact /dev/stdout")
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("khsim migrate: %v", err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("stdout file holds %d bytes beginning %q; want %d bytes, the artifact then the report",
			len(got), firstLine(string(got)), len(want))
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
