package codec

// Fuzz harness for the wire format: throw arbitrary bytes at the decoder
// for a type that exercises every plan kind (scalars, string, []byte,
// slice, array, map with string and int keys, nested struct, pointer) and
// hold the codec to two properties. First, the decoder never panics and
// never lets a corrupt length header buy a giant allocation. Second, any
// input the decoder accepts canonicalizes: re-encoding the decoded value
// and decoding it again must reproduce the same bytes, byte for byte —
// the determinism the golden tests and the frame cache both lean on.
//
// Run with: go test -fuzz=FuzzCodecRoundTrip ./internal/codec/

import (
	"bytes"
	"math"
	"testing"
)

type fuzzInner struct {
	Name  string
	Score float64
	Tags  []string
}

type fuzzMsg struct {
	Flag   bool
	Small  int8
	Wide   int64
	Count  uint32
	Ratio  float32
	Label  string
	Raw    []byte
	Triple [3]int32
	Items  []fuzzInner
	ByName map[string]fuzzInner
	ByID   map[int64]string
	Opt    *fuzzInner
	Link   *fuzzMsg
}

func FuzzCodecRoundTrip(f *testing.F) {
	seeds := []fuzzMsg{
		{}, // zero value: nil maps, nil pointers, empty everything
		{
			Flag: true, Small: -8, Wide: math.MaxInt64, Count: 7,
			Ratio: 2.5, Label: "seed", Raw: []byte{0, 1, 2},
			Triple: [3]int32{-1, 0, 1},
			Items:  []fuzzInner{{Name: "a", Score: 0.5, Tags: []string{"x", "y"}}, {}},
			ByName: map[string]fuzzInner{"k": {Name: "v"}, "": {}},
			ByID:   map[int64]string{-3: "neg", 9: "pos"},
			Opt:    &fuzzInner{Name: "opt"},
		},
		{
			Wide: math.MinInt64, Ratio: float32(math.Inf(-1)),
			Link: &fuzzMsg{Label: "nested", Opt: &fuzzInner{Score: -0.0}},
		},
	}
	for _, s := range seeds {
		b, err := Marshal(s)
		if err != nil {
			f.Fatalf("marshal seed: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // hostile length header

	f.Fuzz(func(t *testing.T, data []byte) {
		var v1 fuzzMsg
		if err := Unmarshal(data, &v1); err != nil {
			return // rejection is fine; panics and runaway allocation are not
		}
		b1, err := Marshal(v1) // fast path: fuzzMsg is registered in fast_test.go
		if err != nil {
			t.Fatalf("re-marshal of accepted value failed: %v", err)
		}
		var v2 fuzzMsg
		if err := Unmarshal(b1, &v2); err != nil {
			t.Fatalf("canonical encoding did not decode: %v", err)
		}
		b2, err := Marshal(v2)
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encoding is not canonical:\n first = %x\nsecond = %x", b1, b2)
		}
		// Differential: the hand-written fast-path marshaler must agree with
		// the reflect plan byte for byte, and each must decode the other's
		// output. Values are compared through a re-encode (not DeepEqual) so
		// NaN payloads, which compare unequal to themselves, still verify.
		br, err := MarshalReflect(v1)
		if err != nil {
			t.Fatalf("reflect marshal of accepted value failed: %v", err)
		}
		if !bytes.Equal(b1, br) {
			t.Fatalf("fast path and reflect plan disagree:\n   fast = %x\nreflect = %x", b1, br)
		}
		var vr fuzzMsg
		if err := UnmarshalReflect(b1, &vr); err != nil {
			t.Fatalf("reflect decode rejected fast-path encoding: %v", err)
		}
		brr, err := Marshal(vr)
		if err != nil {
			t.Fatalf("fast re-marshal of reflect-decoded value failed: %v", err)
		}
		if !bytes.Equal(brr, b1) {
			t.Fatalf("cross-decoded value re-encodes differently:\ncross = %x\n fast = %x", brr, b1)
		}
	})
}

// TestHostileLengthHeaderBounded pins the allocation guard the fuzz target
// relies on: a tiny input claiming a near-maxLen collection must fail on
// the missing bytes without first allocating the claimed length.
func TestHostileLengthHeaderBounded(t *testing.T) {
	// Uvarint for 1<<25 elements, then nothing behind it.
	hostile := []byte{0x80, 0x80, 0x80, 0x10}
	var sl []fuzzInner
	if err := Unmarshal(hostile, &sl); err == nil {
		t.Fatal("slice decode accepted a 32M-element claim backed by no bytes")
	}
	var m map[int64]string
	if err := Unmarshal(hostile, &m); err == nil {
		t.Fatal("map decode accepted a 32M-element claim backed by no bytes")
	}
	// The guard must not disturb honest large-ish collections.
	big := make([]int64, 5000)
	for i := range big {
		big[i] = int64(i * i)
	}
	b, err := Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	var back []int64
	if err := Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(big) || back[4999] != big[4999] {
		t.Fatalf("grown decode corrupted the slice: len=%d", len(back))
	}
}

// Valid is what lets a tier forward a stored encoding without decoding it;
// it has to cost no allocation, or the decode it replaces was cheaper.
func TestValidAllocatesNothing(t *testing.T) {
	msg := fuzzMsg{
		Label: "seed", Raw: []byte{0, 1, 2}, Items: []fuzzInner{{Name: "a", Tags: []string{"x", "y"}}},
		ByName: map[string]fuzzInner{"k": {Name: "v"}}, Opt: &fuzzInner{Name: "opt"},
	}
	enc, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Valid[fuzzMsg](enc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if Valid[fuzzMsg](enc) != nil || Valid[fuzzMsg](enc[:len(enc)-1]) != ErrShortBuffer {
			t.Fatal("Valid changed its mind")
		}
	}); n != 0 {
		t.Fatalf("Valid allocates %v objects per call, want 0", n)
	}
}
