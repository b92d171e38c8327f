//go:build !goexperiment.synctest

package vtime

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// Run, in a binary built without the experiment (a plain `go test ./...`
// cannot set it), runs the calling test alone in a child test binary built
// with it — and with -race if this binary is — and relays the child's output
// and verdict, its subtests' too, by name. The body runs there, once; never
// here.
func Run(t *testing.T, _ func()) {
	t.Helper()
	child, err := buildChild()
	if err != nil {
		t.Fatalf("on virtual time: %v", err)
	}
	name := regexp.QuoteMeta(t.Name())
	args := []string{"-test.count=1", "-test.v", "-test.run", "^" + name + "$"}
	if deadline, ok := t.Deadline(); ok { // the child times out with this binary
		args = append(args, "-test.timeout="+time.Until(deadline).String())
	}
	cmd := exec.Command(child, args...)
	out, err := cmd.CombinedOutput()
	for _, m := range regexp.MustCompile(`(?m)^\s+--- (\w+): `+name+`/(\S+) `).FindAllSubmatch(out, -1) {
		t.Run(string(m[2]), func(sub *testing.T) {
			if string(m[1]) == "FAIL" {
				sub.Fail()
			} else if string(m[1]) == "SKIP" {
				sub.SkipNow()
			}
		})
	}
	if err != nil {
		t.Fatalf("on virtual time (%s): %v\n%s", strings.Join(cmd.Args, " "), err, out)
	}
	t.Logf("on virtual time: %s", strings.TrimSpace(string(out)))
}

// buildChild builds the package's test binary under the experiment, once per
// test binary, beside this one as <binary>-synctest: under `go test` in its
// work directory, which it removes; a binary run directly leaves that one
// file, rebuilt on its next run. The build goes to a name of this process's
// own and is renamed into place, so no process runs a half-written child.
var buildChild = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	child, tmp := exe+"-synctest", fmt.Sprintf("%s-synctest.%d", exe, os.Getpid())
	args := []string{"test", "-c", "-o", tmp}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build the child (%s): %v\n%s", strings.Join(cmd.Args, " "), err, out)
	}
	return child, os.Rename(tmp, child)
})

// Wait and Advance are reachable only in a bubble, which this build never enters.
func Wait()                 { panic("vtime.Wait outside vtime.Run") }
func Advance(time.Duration) { panic("vtime.Advance outside vtime.Run") }
