package dsb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dsb/internal/experiments"
)

// pinnedModes is every on/off mode an application may carry, mapped to the
// experiment that runs both of its arms. A flag exists only if an experiment
// pins both arms (ROADMAP aim 2): each independent boolean doubles the
// systems a committed number might have been taken on.
var pinnedModes = map[string]string{
	"socialnetwork.Config.DisableDegradation": "chaos",
	"socialnetwork.Config.AsyncFanout":        "asyncfanout",
	"socialnetwork.Config.DisableCoalescing":  "hotpath",
}

// openModes would list a mode still waiting for its two-armed experiment;
// there is none, and a new entry needs a reason as strong as an experiment.
var openModes []string

var modeName = regexp.MustCompile(`^(Disable|Async|Stream|No)[A-Z]`)

// TestModeFlagCensus keeps the modes collapsed: the exported bool struct
// fields named like a mode switch across internal/services must be exactly
// the pinned set plus the open exception, and every pinning experiment must
// be registered. A new unpinned mode fails here.
func TestModeFlagCensus(t *testing.T) {
	files, err := filepath.Glob("internal/services/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no service sources found: %v", err)
	}
	var found []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if id, ok := field.Type.(*ast.Ident); !ok || id.Name != "bool" {
					continue
				}
				for _, name := range field.Names {
					if modeName.MatchString(name.Name) {
						found = append(found, f.Name.Name+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
			return true
		})
	}

	want := slices.Clone(openModes)
	for flag, id := range pinnedModes {
		want = append(want, flag)
		if _, ok := experiments.Lookup(id); !ok {
			t.Errorf("%s is pinned by experiment %q, which is not registered", flag, id)
		}
	}
	slices.Sort(found)
	slices.Sort(want)
	if !slices.Equal(found, want) {
		t.Fatalf("mode flags in internal/services:\n  found %q\n  want  %q\nadd the experiment that runs both arms to pinnedModes, or delete the flag", found, want)
	}
}
