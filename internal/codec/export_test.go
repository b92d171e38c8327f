package codec

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
)

// ValidType is Valid for a type known only at run time: the differential
// tests sweep RegisteredTypes with it.
var ValidType = validType

// RegisteredTypes returns the value types registered so far, sorted by
// package path and name. The differential fuzz harness iterates it to hold
// every generated marshaler to the reflect plan's encoding.
func RegisteredTypes() []reflect.Type {
	fastMu.Lock()
	defer fastMu.Unlock()
	return sortedTypes(fastTypes)
}

// JSONTypes returns the value types registered with RegisterJSON, sorted by
// package path and name, for the differential tests against encoding/json.
func JSONTypes() []reflect.Type {
	jsonMu.Lock()
	defer jsonMu.Unlock()
	return sortedTypes(jsonTypes)
}

// sortedTypes returns a copy of ts sorted by package path, then name.
func sortedTypes(ts []reflect.Type) []reflect.Type {
	out := slices.Clone(ts)
	slices.SortFunc(out, func(a, b reflect.Type) int {
		return cmp.Or(strings.Compare(a.PkgPath(), b.PkgPath()), strings.Compare(a.Name(), b.Name()))
	})
	return out
}
