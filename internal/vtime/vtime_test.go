package vtime_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"dsb/internal/vtime"
)

// fixtureEnv switches on TestFixtureFails, the deliberately broken test that
// TestFailureReachesTheOuterTest runs in a child process.
const fixtureEnv = "DSB_VTIME_FIXTURE"

func TestFixtureFails(t *testing.T) {
	if os.Getenv(fixtureEnv) == "" {
		t.Skip("fixture: run by TestFailureReachesTheOuterTest")
	}
	vtime.Run(t, func() {
		t.Log("inner output, before the failure")
		t.Run("sub", func(t *testing.T) {
			if vtime.Advance(time.Second); time.Now().Year() != 1999 {
				t.Fatal("inner failure: a deliberately broken assertion")
			}
		})
	})
}

// TestFailureReachesTheOuterTest runs this test binary again — so the same
// build: a bubble in process under GOEXPERIMENT=synctest, a child `go test`
// without it — on a test whose body fails in a subtest: the test and the
// subtest both fail here, by name, and what the body logged on the way is in
// the output.
func TestFailureReachesTheOuterTest(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestFixtureFails$", "-test.count=1")
	cmd.Env = append(os.Environ(), fixtureEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("a test whose bubble body fails passed:\n%s", out)
	}
	got := "\n" + string(out) // so that a verdict line can be told by its indentation
	for _, want := range []string{
		"\n--- FAIL: TestFixtureFails (", "\n    --- FAIL: TestFixtureFails/sub (",
		"inner output, before the failure", "inner failure: a deliberately broken assertion",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output of the failing test lacks %q:%s", want, got)
		}
	}
}
