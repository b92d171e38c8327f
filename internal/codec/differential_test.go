package codec_test

// Differential harness over every REGISTERED generated marshaler: blank
// imports pull in the wire_gen.go init()s from kv, docstore, mq, and all
// five apps, then a reflection-based filler conjures random values of each
// registered type and holds the generated fast path to the reflect plan —
// identical bytes out of Marshal, and either arm decodes the other's
// encoding back to an equal value. This is the backstop that lets
// cmd/codecgen evolve: any drift between the emitter and the plan builders
// fails here, naming the type.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dsb/internal/codec"

	_ "dsb/internal/docstore"
	_ "dsb/internal/kv"
	_ "dsb/internal/mq"
	_ "dsb/internal/services/banking"
	_ "dsb/internal/services/ecommerce"
	_ "dsb/internal/services/media"
	_ "dsb/internal/services/socialnetwork"
	_ "dsb/internal/services/swarm"
)

// fill populates v (an addressable reflect.Value) with pseudo-random
// content. Floats stay finite so decoded values stay DeepEqual-comparable;
// sizes stay small so a full sweep over all registered types is cheap.
func fill(v reflect.Value, rng *rand.Rand, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := rng.Int63() - rng.Int63()
		switch v.Kind() {
		case reflect.Int8:
			n = int64(int8(n))
		case reflect.Int16:
			n = int64(int16(n))
		case reflect.Int32:
			n = int64(int32(n))
		}
		v.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := rng.Uint64()
		switch v.Kind() {
		case reflect.Uint8:
			n = uint64(uint8(n))
		case reflect.Uint16:
			n = uint64(uint16(n))
		case reflect.Uint32:
			n = uint64(uint32(n))
		}
		v.SetUint(n)
	case reflect.Float32:
		v.SetFloat(float64(float32(rng.NormFloat64() * 1e3)))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e6)
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v.SetString(string(b))
	case reflect.Slice:
		n := rng.Intn(4)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(s.Index(i), rng, depth+1)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), rng, depth+1)
		}
	case reflect.Map:
		n := rng.Intn(4)
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(k, rng, depth+1)
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, rng, depth+1)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		if depth > 3 || rng.Intn(2) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), rng, depth+1)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), rng, depth+1)
			}
		}
	}
}

// checkOne runs the four-way differential for one value: fast encode ==
// reflect encode, and fast/reflect decodes of those bytes agree with each
// other.
func checkOne(t *testing.T, typ reflect.Type, val any) {
	t.Helper()
	fast, err := codec.Marshal(val)
	if err != nil {
		t.Fatalf("%s: fast marshal: %v", typ, err)
	}
	refl, err := codec.MarshalReflect(val)
	if err != nil {
		t.Fatalf("%s: reflect marshal: %v", typ, err)
	}
	if !bytes.Equal(fast, refl) {
		t.Fatalf("%s: generated marshaler diverges from reflect plan:\n   fast = %x\nreflect = %x\nvalue: %+v",
			typ, fast, refl, val)
	}
	viaFast := reflect.New(typ)
	if err := codec.Unmarshal(refl, viaFast.Interface()); err != nil {
		t.Fatalf("%s: fast decode of reflect encoding: %v", typ, err)
	}
	viaRefl := reflect.New(typ)
	if err := codec.UnmarshalReflect(fast, viaRefl.Interface()); err != nil {
		t.Fatalf("%s: reflect decode of fast encoding: %v", typ, err)
	}
	if !reflect.DeepEqual(viaFast.Elem().Interface(), viaRefl.Elem().Interface()) {
		t.Fatalf("%s: decode arms disagree:\n   fast = %+v\nreflect = %+v",
			typ, viaFast.Elem().Interface(), viaRefl.Elem().Interface())
	}
}

// TestRegisteredMarshalersMatchReflect sweeps every registered type with a
// deterministic seed battery, so plain `go test` already exercises the full
// differential (the fuzz target below widens the seed space).
func TestRegisteredMarshalersMatchReflect(t *testing.T) {
	types := codec.RegisteredTypes()
	if len(types) < 50 {
		t.Fatalf("expected the generated packages to register at least 50 types, got %d", len(types))
	}
	for _, typ := range types {
		// Zero value first: nil maps, nil slices, nil pointers.
		checkOne(t, typ, reflect.New(typ).Elem().Interface())
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed * 7919))
			pv := reflect.New(typ)
			fill(pv.Elem(), rng, 0)
			checkOne(t, typ, pv.Elem().Interface())
		}
	}
}

// FuzzRegisteredFastPaths lets the fuzzer drive the filler's seed across
// all registered types.
func FuzzRegisteredFastPaths(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(-99991))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range codec.RegisteredTypes() {
			pv := reflect.New(typ)
			fill(pv.Elem(), rng, 0)
			checkOne(t, typ, pv.Elem().Interface())
		}
	})
}

// checkValid holds Valid to its definition on one input: nil exactly when
// Unmarshal into a fresh value is nil.
func checkValid(t *testing.T, typ reflect.Type, data []byte) {
	t.Helper()
	verr := codec.ValidType(typ, data)
	uerr := codec.Unmarshal(data, reflect.New(typ).Interface())
	if (verr == nil) != (uerr == nil) {
		t.Fatalf("%s on %x: Valid says %v, Unmarshal says %v", typ, data, verr, uerr)
	}
}

// corruptions returns enc and damaged variants of it: every truncation,
// trailing bytes, single-byte flips, and hostile length headers spliced in
// where a length or value may sit.
func corruptions(enc []byte, rng *rand.Rand) [][]byte {
	out := [][]byte{enc, append(bytes.Clone(enc), 0), append(bytes.Clone(enc), 0xff, 0x01)}
	for i := 0; i < len(enc); i++ {
		out = append(out, enc[:i])
	}
	hostile := [][]byte{
		{0x80, 0x80, 0x80, 0x10},                                     // 32M elements backed by nothing
		{0xff, 0xff, 0xff, 0xff, 0x0f},                               // past the length bound
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // a full-width varint
		{0x80}, // an unterminated varint
	}
	for i := 0; i < 24 && len(enc) > 0; i++ {
		c := bytes.Clone(enc)
		at := rng.Intn(len(c))
		c[at] = byte(rng.Intn(256))
		out = append(out, c)
		h := hostile[rng.Intn(len(hostile))]
		out = append(out, append(append(bytes.Clone(enc[:at]), h...), enc[at:]...))
	}
	return out
}

// TestValidMatchesUnmarshal sweeps every registered type: the skippers
// behind Valid must accept and reject exactly what the generated decoders
// do, on honest encodings and on damaged ones.
func TestValidMatchesUnmarshal(t *testing.T) {
	for _, typ := range codec.RegisteredTypes() {
		for seed := int64(0); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed * 15485863))
			pv := reflect.New(typ)
			if seed > 0 {
				fill(pv.Elem(), rng, 0)
			}
			enc, err := codec.Marshal(pv.Elem().Interface())
			if err != nil {
				t.Fatal(err)
			}
			if err := codec.ValidType(typ, enc); err != nil {
				t.Fatalf("%s: Valid rejects an honest encoding: %v", typ, err)
			}
			for _, data := range corruptions(enc, rng) {
				checkValid(t, typ, data)
			}
		}
	}
}

// FuzzValid lets the fuzzer supply the bytes for every registered type.
func FuzzValid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x10})
	f.Add([]byte{3, 'a', 'b', 'c', 1, 'x', 0, 2, 1, 'm', 1, 'n', 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range codec.RegisteredTypes() {
			checkValid(t, typ, data)
		}
	})
}
