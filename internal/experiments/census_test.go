package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// pinnedSleeps is every time.Sleep the package's non-test code may make,
// by enclosing function, with the reason it is not the driver's or the
// capacity model's: arrivals are paced by loadgen.RunOpenLoop and modeled
// service times are fault.Capacity, so a sleep is one of the few things
// below or a second copy of one of those two.
var pinnedSleeps = map[string]string{
	"autoscale.go:runAutoscale ×2":    "text and compose handler service time: the server's own concurrency bound (admission on/off) is the variable under test, so the work must run inside the handler",
	"resilience.go:runChain ×1":       "slow-replica handler service time, server-side for the same reason (the healthy replicas burn)",
	"brokercrash.go:bcRun ×2":         "producer retry backoff; delivery-watch poll of the probe timeline",
	"push.go:pushRun ×2":              "delivery-watch poll; the trailing idle window, which is the measurement",
	"wirespeed.go:runWirespeedArm ×1": "paced serial workers carrying per-worker scratch: neither loop of loadgen hands do a worker index",
}

// expGap is math/rand's exponential draw, spelled so that grepping the
// package for it finds only real calls.
const expGap = "Exp" + "Float64"

// TestLoadAndCapacityCensus keeps the package on one load driver and one
// capacity model: no file draws its own exponential gaps (a hand-rolled
// Poisson loop), and the time.Sleep calls are exactly the pinned ones. A new
// sleep fails here: drive arrivals with loadgen.RunOpenLoop, model service
// time with fault.Capacity, or pin the site with its reason.
func TestLoadAndCapacityCensus(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	sleeps := map[string]int{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == expGap {
					t.Errorf("%s: %s call — arrival gaps come from loadgen.NewPoisson", fset.Position(call.Pos()), expGap)
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && sel.Sel.Name == "Sleep" {
					sleeps[path+":"+fn.Name.Name]++
				}
				return true
			})
		}
	}
	found := map[string]string{}
	for site, n := range sleeps {
		key := fmt.Sprintf("%s ×%d", site, n)
		found[key] = pinnedSleeps[key]
	}
	if !maps.Equal(found, pinnedSleeps) {
		t.Fatalf("time.Sleep calls in internal/experiments:\n  found  %q\n  pinned %q", slices.Sorted(maps.Keys(found)), slices.Sorted(maps.Keys(pinnedSleeps)))
	}
}
