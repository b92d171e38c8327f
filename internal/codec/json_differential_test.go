package codec_test

// Differential harness holding the generated JSON codecs to encoding/json
// for every JSON-registered type (the REST front-door types, plus
// cmd/codecgen's fixture, which has one field of each kind the emitter
// supports): AppendMarshalJSON must write json.Marshal's bytes, and
// UnmarshalJSON must leave exactly the error and the target json.Unmarshal
// leaves — on clean input, and on everything the strict path is meant to
// hand back: escapes, \u pairs, invalid UTF-8, whitespace, unknown,
// duplicate and case-folded keys, null, numbers out of range, truncation.
// The transcoders (AppendWireJSON, AppendWireJSONList) are held to the wire
// decoder followed by AppendMarshalJSON, on the encodings of those values and
// on their corruptions: they fail where the decoder fails, stop where it
// stops, and write what the decoded value encodes to.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dsb/cmd/codecgen/testdata/fixture"
	"dsb/internal/codec"
	"dsb/internal/services/socialnetwork"
)

// hostileStrings are the string values the filler mixes in: everything
// AppendJSONString has a branch for.
var hostileStrings = []string{
	"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>",
	"ctl \b\f\n\r\t\x00\x1f\x7f", "sep \u2028 \u2029", "héllo wörld ☃ 𝄞",
	"bad \xff utf8 \xc3", "trunc \xe2\x82", "\xed\xa0\x80 lone surrogate bytes",
}

// fillJSON is fill with hostile strings mixed in and nil/empty slices both
// produced (encoding/json writes null for one and [] for the other).
func fillJSON(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.String:
		if rng.Intn(2) == 0 {
			v.SetString(hostileStrings[rng.Intn(len(hostileStrings))])
			return
		}
		fill(v, rng, 0)
	case reflect.Slice:
		switch n := rng.Intn(5); n {
		case 0:
			v.SetZero()
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < n-1; i++ {
				fillJSON(s.Index(i), rng)
			}
			v.Set(s)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillJSON(v.Field(i), rng)
			}
		}
	default:
		fill(v, rng, 0)
	}
}

// shapes returns v (a T) as the four shapes the registry serves: T, *T,
// []T and *[]T.
func shapes(v reflect.Value, n int) []any {
	s := reflect.MakeSlice(reflect.SliceOf(v.Type()), n, n)
	for i := 0; i < n; i++ {
		s.Index(i).Set(v)
	}
	ps := reflect.New(s.Type())
	ps.Elem().Set(s)
	pv := reflect.New(v.Type())
	pv.Elem().Set(v)
	return []any{v.Interface(), pv.Interface(), s.Interface(), ps.Interface()}
}

func checkJSONMarshal(t *testing.T, val any) {
	t.Helper()
	want, werr := json.Marshal(val)
	got, gerr := codec.AppendMarshalJSON([]byte("prefix"), val)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T: encoding/json err %v, generated err %v", val, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%T: generated JSON differs from encoding/json:\n got %s\nwant %s", val, got[len("prefix"):], want)
	}
}

// checkJSONDecode decodes data into a fresh and into a populated target of
// both pointer shapes, through encoding/json and through the generated
// path, and requires the same error and the same target.
func checkJSONDecode(t *testing.T, typ reflect.Type, data []byte) {
	t.Helper()
	for _, target := range []reflect.Type{typ, reflect.SliceOf(typ)} {
		for _, populated := range []bool{false, true} {
			want, got := reflect.New(target), reflect.New(target)
			if populated {
				// Same seed, so both start from the same stale value.
				fillJSON(want.Elem(), rand.New(rand.NewSource(42)))
				fillJSON(got.Elem(), rand.New(rand.NewSource(42)))
			}
			werr := json.Unmarshal(data, want.Interface())
			gerr := codec.UnmarshalJSON(data, got.Interface())
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s (populated=%v) decoding %q:\n encoding/json err %v\n generated err %v", target, populated, data, werr, gerr)
			}
			if !reflect.DeepEqual(want.Elem().Interface(), got.Elem().Interface()) {
				t.Fatalf("%s (populated=%v) decoding %q:\n encoding/json %+v\n generated     %+v", target, populated, data, want.Elem().Interface(), got.Elem().Interface())
			}
		}
	}
	// Non-pointer targets are encoding/json's error to report.
	v := reflect.New(typ).Elem().Interface()
	if werr, gerr := json.Unmarshal(data, v), codec.UnmarshalJSON(data, v); fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s by value: encoding/json err %v, generated err %v", typ, werr, gerr)
	}
}

// mutations returns hostile variants of one valid encoding: the inputs the
// strict path must decline rather than decode differently.
func mutations(valid []byte, rng *rand.Rand) [][]byte {
	s := string(valid)
	out := [][]byte{
		valid,
		[]byte(" \t\r\n" + s + " \n"),
		[]byte(strings.ReplaceAll(strings.ReplaceAll(s, ":", " : "), ",", " ,\n")),
		[]byte(s + "x"), []byte(s + "{}"), []byte("null"), []byte("[" + s + "]"), []byte("[" + s + "," + s + " ]"),
		[]byte("[null," + s + "]"), []byte("[]"), []byte(" [ ] "), []byte("{}"), []byte(""), []byte("[" + s + ",]"),
		[]byte(strings.Replace(s, "{", `{"Unknown":[1,{"a":null}],`, 1)),
		[]byte(strings.Replace(s, "}", `,"unknown":"x"}`, 1)),
	}
	// Truncation at every length.
	for i := 0; i < len(valid); i++ {
		out = append(out, valid[:i])
	}
	// Per key: case-folded, duplicated, dropped, null, and wrongly typed.
	for _, m := range keyPattern.FindAllStringSubmatchIndex(s, -1) {
		key, end := s[m[2]:m[3]], m[1]
		out = append(out,
			[]byte(s[:m[2]]+strings.ToUpper(key)+s[m[3]:]),
			[]byte(s[:m[2]]+strings.ToLower(key)+s[m[3]:]),
			[]byte(s[:m[0]]+s[m[0]:end]+`null,`+s[m[0]:]),
			[]byte(s[:end]+`null`+skipValue(s[end:])),
			[]byte(s[:end]+`1e2`+skipValue(s[end:])),
			[]byte(s[:end]+`-1.5`+skipValue(s[end:])),
			[]byte(s[:end]+`"str"`+skipValue(s[end:])),
			[]byte(s[:end]+`99999999999999999999`+skipValue(s[end:])),
			[]byte(s[:end]+`-9223372036854775808`+skipValue(s[end:])),
			[]byte(s[:end]+`18446744073709551615`+skipValue(s[end:])),
			[]byte(s[:end]+`012`+skipValue(s[end:])),
			[]byte(s[:end]+`- 1`+skipValue(s[end:])),
			[]byte(s[:end]+`[null]`+skipValue(s[end:])),
			[]byte(s[:end]+`{}`+skipValue(s[end:])),
			[]byte(s[:end]+`true`+skipValue(s[end:])),
		)
	}
	// String bodies: escapes the decoder handles, escapes it declines, raw
	// bytes encoding/json repairs.
	for _, repl := range []string{
		`a\"b\\c\/d\b\f\n\r\t`, `\u0041\u00e9\u20AC\u0000`, `\ud834\udd1e`, `\ud834`, `\udd1e\ud834`, `\ud834x`,
		`\u12`, `\x41`, `\`, "raw\x01ctl", "bad\xffutf8", "ok ☃ 𝄞", "tab\tin string",
	} {
		if i := strings.Index(s, `":"`); i >= 0 {
			out = append(out, []byte(s[:i+3]+repl+s[i+3:]))
		}
	}
	// And a few random single-byte corruptions.
	for i := 0; i < 16 && len(valid) > 0; i++ {
		c := bytes.Clone(valid)
		c[rng.Intn(len(c))] = byte(rng.Intn(256))
		out = append(out, c)
	}
	return out
}

// checkWireJSON holds typ's transcoder to decoding wire — any bytes — and
// encoding the result.
func checkWireJSON(t *testing.T, typ reflect.Type, wire []byte) {
	t.Helper()
	got, rest, err := reflect.New(typ).Interface().(codec.JSONMessage).AppendWireJSON([]byte("prefix"), wire)
	checkTranscoded(t, typ, wire, got, rest, err)
}

// checkWireJSONList is checkWireJSON for the list transcoder over []T.
func checkWireJSONList[T any, PT interface {
	codec.JSONMessage
	*T
}](t *testing.T, wire []byte) {
	t.Helper()
	got, rest, err := codec.AppendWireJSONList[T, PT]([]byte("prefix"), wire)
	checkTranscoded(t, reflect.TypeFor[[]T](), wire, got, rest, err)
}

func checkTranscoded(t *testing.T, typ reflect.Type, wire, got, rest []byte, err error) {
	t.Helper()
	after, derr := codec.SkipType(typ, wire)
	if (err == nil) != (derr == nil) {
		t.Fatalf("%s from wire %x: transcoder err %v, decoder err %v", typ, wire, err, derr)
	}
	if err != nil {
		return
	}
	if len(rest) != len(after) {
		t.Fatalf("%s from wire %x: transcoder left %d bytes, decoder %d", typ, wire, len(rest), len(after))
	}
	v := reflect.New(typ)
	if err := codec.Unmarshal(wire[:len(wire)-len(rest)], v.Interface()); err != nil {
		t.Fatalf("%s from wire %x: the prefix the decoder skips does not decode: %v", typ, wire, err)
	}
	want, err := codec.AppendMarshalJSON([]byte("prefix"), v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s from wire %x:\n transcoded %s\n decoded    %s", typ, wire, got[len("prefix"):], want[len("prefix"):])
	}
}

// wireMutations returns a wire encoding and its corruptions: every
// truncation, trailing bytes, a hostile length up front and random bytes.
func wireMutations(wire []byte, rng *rand.Rand) [][]byte {
	out := [][]byte{wire, append(bytes.Clone(wire), 0), append(bytes.Clone(wire), 0xff, 0x01)}
	for i := 0; i < len(wire); i++ {
		out = append(out, wire[:i])
	}
	if len(wire) > 0 {
		out = append(out, append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, wire[1:]...), append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, wire[1:]...))
	}
	for i := 0; i < 16 && len(wire) > 0; i++ {
		c := bytes.Clone(wire)
		c[rng.Intn(len(c))] = byte(rng.Intn(256))
		out = append(out, c)
	}
	return out
}

func TestGeneratedJSONMatchesEncodingJSON(t *testing.T) {
	types := codec.JSONTypes()
	if len(types) < 4 {
		t.Fatalf("expected socialnetwork.Post and the codecgen fixture to register JSON codecs, got %v", types)
	}
	for _, typ := range types {
		for seed := int64(0); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed * 104729))
			v := reflect.New(typ).Elem()
			if seed > 0 { // seed 0 is the zero value: nil slices, empty strings
				fillJSON(v, rng)
			}
			for _, shape := range shapes(v, int(seed%4)) {
				checkJSONMarshal(t, shape)
			}
			valid, err := json.Marshal(v.Interface())
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range mutations(valid, rng) {
				checkJSONDecode(t, typ, data)
			}
			wire, err := codec.Marshal(v.Interface())
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range wireMutations(wire, rng) {
				checkWireJSON(t, typ, data)
			}
			// The comparison above passes trivially if the generated decoder
			// declines everything: what either encoder writes for a value
			// without nil slices is the strict path, and must be taken.
			if !bytes.Contains(valid, []byte("null")) {
				got := reflect.New(typ)
				rest, ok := got.Interface().(codec.JSONMessage).DecodeJSON(string(valid))
				var want any = reflect.New(typ).Interface()
				if err := json.Unmarshal(valid, want); err != nil {
					t.Fatal(err)
				}
				if !ok || len(rest) != 0 || !reflect.DeepEqual(got.Interface(), want) {
					t.Fatalf("%s: generated decoder declined or misread its own encoding %s (ok=%v rest=%q)", typ, valid, ok, rest)
				}
			}
		}
		// Nil pointers and nil slices are "null", which encoding/json writes.
		checkJSONMarshal(t, reflect.Zero(reflect.PointerTo(typ)).Interface())
		checkJSONMarshal(t, reflect.Zero(reflect.SliceOf(typ)).Interface())
		checkJSONMarshal(t, reflect.Zero(reflect.PointerTo(reflect.SliceOf(typ))).Interface())
	}
}

// The list transcoder over the two roots the tree has: lists of every length
// the filler makes, nil and empty included, and their corruptions.
func TestWireJSONListMatchesDecode(t *testing.T) {
	for seed := int64(0); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		var posts []socialnetwork.Post
		var pages []fixture.Page
		fillJSON(reflect.ValueOf(&posts).Elem(), rng)
		fillJSON(reflect.ValueOf(&pages).Elem(), rng)
		for _, wire := range wireMutations(mustMarshal(t, posts), rng) {
			checkWireJSONList[socialnetwork.Post](t, wire)
		}
		for _, wire := range wireMutations(mustMarshal(t, pages), rng) {
			checkWireJSONList[fixture.Page](t, wire)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := codec.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzGeneratedJSON lets the fuzzer drive both the value (through the
// filler's seed) and the decoders' input, JSON and wire alike.
func FuzzGeneratedJSON(f *testing.F) {
	f.Add(int64(1), []byte(`{"ID":"a","Author":"b","Text":"c","Mentions":[],"URLs":null,"MediaIDs":["m"],"CreatedAt":-5}`))
	f.Add(int64(7), []byte(`[{"id":"\ud834\udd1e","Kind":"k","Draft":true,"Level":-128,"Created":1,"Port":65535,"Hash":0,"Labels":[],"Rows":[],"Top":{"name":"","Tags":[],"Rank":0},"Nothing":{}}]`))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range codec.JSONTypes() {
			v := reflect.New(typ).Elem()
			fillJSON(v, rng)
			for _, shape := range shapes(v, rng.Intn(3)) {
				checkJSONMarshal(t, shape)
			}
			checkJSONDecode(t, typ, data)
			wire, err := codec.Marshal(v.Interface())
			if err != nil {
				t.Fatal(err)
			}
			checkWireJSON(t, typ, wire)
			checkWireJSON(t, typ, data)
		}
		checkWireJSONList[socialnetwork.Post](t, data)
	})
}

// keyPattern finds object keys in a compact encoding.
var keyPattern = regexp.MustCompile(`"([A-Za-z0-9_]+)":`)

// skipValue returns s without the JSON value it starts with.
func skipValue(s string) string {
	dec := json.NewDecoder(strings.NewReader(s))
	var raw json.RawMessage
	if dec.Decode(&raw) != nil {
		return s
	}
	return s[dec.InputOffset():]
}
