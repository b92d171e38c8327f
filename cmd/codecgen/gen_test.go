package main

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"

	"dsb/cmd/codecgen/testdata/fixture"
	"dsb/internal/codec"
)

var update = flag.Bool("update", false, "rewrite testdata/fixture/wire_gen.go from the emitter's output")

const golden = "testdata/fixture/wire_gen.go"

func TestGenerateGolden(t *testing.T) {
	got, err := generate("fixture", "dsb/cmd/codecgen/testdata/fixture",
		[]reflect.Type{reflect.TypeOf(fixture.Outer{})}, []reflect.Type{reflect.TypeOf(fixture.Page{})})
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("emitter output differs from %s; inspect with `go test ./cmd/codecgen -update` and git diff\n%s", golden, got)
	}
	// Ordering one or two map keys must cost neither a closure nor
	// reflection: slices.Sort, and only when there is something to order.
	if bytes.Contains(got, []byte("sort.Slice")) {
		t.Error("generated code calls sort.Slice")
	}
	if n := bytes.Count(got, []byte("slices.Sort(")); n != 2 {
		t.Errorf("generated code has %d slices.Sort calls, want one per map field (2)", n)
	}
}

// The golden file is compiled into this test, so the generated marshalers
// can be held to the reflect plans' bytes here as well.
func TestGoldenMatchesReflectPlan(t *testing.T) {
	v := fixture.Outer{
		ID:      "o1",
		Labels:  map[string]string{"z": "26", "a": "1", "m": "13"},
		ByRank:  map[int32]fixture.Inner{3: {Name: "c", Score: 0.5}, -1: {Name: "a"}, 2: {Name: "b"}},
		Best:    fixture.Inner{Name: "best", Score: 9.5},
		Others:  []fixture.Inner{{Name: "x"}, {Name: "y", Score: 1}},
		Payload: []byte{1, 2, 3},
		Parent:  &fixture.Inner{Name: "p"},
	}
	fast, err := codec.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := codec.MarshalReflect(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("generated encoding differs from the reflect plan:\n gen     %x\n reflect %x", fast, slow)
	}
	var back fixture.Outer
	if err := codec.Unmarshal(fast, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip: got %+v, want %+v", back, v)
	}
}

// A generated decode takes every string from one copy of its input and gives
// every byte slice a copy of its own: overwriting the input afterwards, or
// appending to a decoded byte slice, changes no decoded string.
func TestGoldenDecodeOwnsStrings(t *testing.T) {
	v := fixture.Outer{
		ID:      "outer",
		Labels:  map[string]string{"k": "label"},
		ByRank:  map[int32]fixture.Inner{1: {Name: "ranked"}},
		Best:    fixture.Inner{Name: "best"},
		Others:  []fixture.Inner{{Name: "other"}},
		Payload: []byte("payload"),
		Parent:  &fixture.Inner{Name: "parent"},
	}
	wire, err := codec.Marshal(&v)
	if err != nil {
		t.Fatal(err)
	}
	var got fixture.Outer
	if err := codec.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 'X'
	}
	got.Payload = append(got.Payload, bytes.Repeat([]byte{'Y'}, 64)...)
	got.Payload = append(got.Payload[:0], bytes.Repeat([]byte{'Z'}, len(got.Payload))...)
	want := v
	want.Payload = got.Payload
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded strings changed with the input or a byte slice:\n got  %+v\n want %+v", got, want)
	}
}
