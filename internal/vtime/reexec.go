//go:build !goexperiment.synctest

package vtime

import (
	"os"
	"os/exec"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// Run, in a binary built without the experiment (a plain `go test ./...`
// cannot set it), runs the calling test alone in a child `go test` built with
// it — and with -race if this binary is — and relays the child's output and
// verdict, its subtests' too, by name. The body runs there, once; never here.
func Run(t *testing.T, _ func()) {
	t.Helper()
	name := regexp.QuoteMeta(t.Name())
	args := []string{"test", "-count=1", "-v", "-run", "^" + name + "$"}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
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

// Wait and Advance are reachable only in a bubble, which this build never enters.
func Wait()                 { panic("vtime.Wait outside vtime.Run") }
func Advance(time.Duration) { panic("vtime.Advance outside vtime.Run") }
