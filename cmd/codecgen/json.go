package main

// The JSON emitter: AppendJSON/DecodeJSON methods for the REST front-door
// types (the jsonRoots of a target and their same-package closure), and
// AppendWireJSON, which turns a value's wire encoding into the JSON AppendJSON
// would write for the decoded value without decoding it. The output is held
// to encoding/json — marshal bytes identical, decode results identical — and
// the transcoder to the wire decoder followed by AppendJSON, by the
// differential fuzzer in internal/codec, under the
// contract written on codec.JSONMessage: the generated decoder accepts only
// the strict shape both encoders write and declines everything else, so
// whatever it does not handle is decoded by encoding/json itself. Shapes
// whose encoding/json behaviour the emitter does not reproduce (floats,
// []byte, maps, pointers, arrays, tag options, custom marshalers) are
// refused at generation time rather than approximated.

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

var customJSON = []reflect.Type{
	reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// plainJSON rejects a type that brings its own JSON or text encoding, which
// encoding/json would call and generated code would not.
func plainJSON(t reflect.Type) error {
	for _, it := range customJSON {
		if t.Implements(it) || reflect.PointerTo(t).Implements(it) {
			return fmt.Errorf("type %s implements %s", t, it)
		}
	}
	return nil
}

// jsonKey is the object key encoding/json gives f: the field name, or the
// name a `json:"name"` tag gives it.
func jsonKey(f reflect.StructField) string {
	if tag, ok := f.Tag.Lookup("json"); ok {
		return tag
	}
	return f.Name
}

// jsonFields returns t's exported fields in declaration order, refusing
// what the emitter does not reproduce: embedding, tag options, keys that
// need escaping or collide.
func jsonFields(t reflect.Type) ([]reflect.StructField, error) {
	if err := plainJSON(t); err != nil {
		return nil, err
	}
	var fs []reflect.StructField
	keys := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return nil, fmt.Errorf("%s: embedded field %s is not supported in a JSON root", t, f.Name)
		}
		if !f.IsExported() {
			continue
		}
		key := jsonKey(f)
		if key == "" || key == "-" || strings.Contains(key, ",") {
			return nil, fmt.Errorf("%s.%s: json tag %q is not supported in a JSON root", t, f.Name, key)
		}
		if strings.Trim(key, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") != "" {
			return nil, fmt.Errorf("%s.%s: key %q needs escaping", t, f.Name, key)
		}
		// encoding/json matches keys case-insensitively, so two keys that
		// differ only in case shadow each other there.
		if keys[strings.ToLower(key)] {
			return nil, fmt.Errorf("%s.%s: key %q collides with an earlier field", t, f.Name, key)
		}
		keys[strings.ToLower(key)] = true
		fs = append(fs, f)
	}
	return fs, nil
}

func (g *gen) emitJSONType(w *bytes.Buffer, t reflect.Type) error {
	fields, err := jsonFields(t)
	if err != nil {
		return err
	}

	g.tmp = 0
	fmt.Fprintf(w, "// AppendJSON appends m's JSON encoding to b, byte for byte what\n// encoding/json writes (codec.JSONMessage fast path).\n")
	fmt.Fprintf(w, "func (m *%s) AppendJSON(b []byte) []byte {\n", t.Name())
	fmt.Fprintf(w, "\tif m == nil {\n\t\treturn append(b, \"null\"...)\n\t}\n")
	open := "{"
	for _, f := range fields {
		fmt.Fprintf(w, "\tb = append(b, `%s\"%s\":`...)\n", open, jsonKey(f))
		open = ","
		if err := g.emitJSONEncode(w, f.Type, "m."+f.Name, 1); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name(), f.Name, err)
		}
	}
	if len(fields) == 0 {
		fmt.Fprintf(w, "\tb = append(b, '{')\n")
	}
	fmt.Fprintf(w, "\treturn append(b, '}')\n}\n\n")

	g.tmp = 0
	fmt.Fprintf(w, "// DecodeJSON consumes one strict-path JSON encoding of m from b,\n// declining (ok false) whatever is off it; see codec.JSONMessage.\n")
	fmt.Fprintf(w, "func (m *%s) DecodeJSON(b string) (rest string, ok bool) {\n", t.Name())
	open = "{"
	for _, f := range fields {
		fmt.Fprintf(w, "\tif b, ok = codec.JSONKey(b, %q, `\"%s\"`); !ok {\n\t\treturn \"\", false\n\t}\n", open, jsonKey(f))
		open = ","
		if err := g.emitJSONDecode(w, f.Type, "m."+f.Name, 1); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name(), f.Name, err)
		}
	}
	if len(fields) == 0 {
		fmt.Fprintf(w, "\tif b, ok = codec.JSONLit(b, \"{\"); !ok {\n\t\treturn \"\", false\n\t}\n")
	}
	fmt.Fprintf(w, "\treturn codec.JSONLit(b, \"}\")\n}\n\n")

	g.tmp = 0
	fmt.Fprintf(w, "// AppendWireJSON appends, as JSON, the %s whose wire encoding starts w,\n// and returns the rest of w (codec.JSONMessage).\n", t.Name())
	fmt.Fprintf(w, "func (*%s) AppendWireJSON(b, w []byte) ([]byte, []byte, error) {\n", t.Name())
	open = "{"
	for _, f := range fields {
		if f.Tag.Get("codec") == "-" {
			return fmt.Errorf("%s.%s: a field off the wire cannot be transcoded from it", t.Name(), f.Name)
		}
		fmt.Fprintf(w, "\tb = append(b, `%s\"%s\":`...)\n", open, jsonKey(f))
		open = ","
		if err := g.emitWireJSON(w, f.Type, 1); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name(), f.Name, err)
		}
	}
	if len(fields) == 0 {
		fmt.Fprintf(w, "\tb = append(b, '{')\n")
	}
	fmt.Fprintf(w, "\treturn append(b, '}'), w, nil\n}\n\n")
	return nil
}

// emitWireJSON writes statements consuming one ft from the wire bytes w and
// appending its JSON encoding to b. A decoded slice is never nil, so it is
// always an array.
func (g *gen) emitWireJSON(w *bytes.Buffer, ft reflect.Type, depth int) error {
	p, kind := ind(depth), ft.Kind().String()
	scalar := func(dec, enc string) {
		g.tmp++
		v := fmt.Sprintf("v%d", g.tmp)
		fmt.Fprintf(w, "%s{\n%s\t%s, rest, err := codec.%s(w)\n", p, p, v, dec)
		fmt.Fprintf(w, "%s\tif err != nil {\n%s\t\treturn b, nil, err\n%s\t}\n", p, p, p)
		fmt.Fprintf(w, "%s\tb = %s\n%s\tw = rest\n%s}\n", p, fmt.Sprintf(enc, v), p, p)
	}
	switch ft.Kind() {
	case reflect.Bool:
		scalar("DecBool", "strconv.AppendBool(b, %s)")
	case reflect.Int, reflect.Int64:
		scalar("DecInt", "strconv.AppendInt(b, %s, 10)")
	case reflect.Int8, reflect.Int16, reflect.Int32: // DecInt8 for an int8, ...
		scalar("Dec"+strings.ToUpper(kind[:1])+kind[1:], "strconv.AppendInt(b, int64(%s), 10)")
	case reflect.Uint, reflect.Uint64:
		scalar("DecUint", "strconv.AppendUint(b, %s, 10)")
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		scalar("Dec"+strings.ToUpper(kind[:1])+kind[1:], "strconv.AppendUint(b, uint64(%s), 10)")
	case reflect.String:
		scalar("DecStringBytes", "codec.AppendJSONBytes(b, %s)")
	case reflect.Slice:
		if zeroWidth(ft.Elem()) {
			// A hostile length would buy an unbounded array out of no input.
			return fmt.Errorf("a slice of zero-width %s cannot be transcoded", ft.Elem())
		}
		g.tmp++
		n, i := fmt.Sprintf("n%d", g.tmp), fmt.Sprintf("i%d", g.tmp)
		fmt.Fprintf(w, "%s{\n%s\t%s, rest, err := codec.DecLen(w)\n", p, p, n)
		fmt.Fprintf(w, "%s\tif err != nil {\n%s\t\treturn b, nil, err\n%s\t}\n", p, p, p)
		fmt.Fprintf(w, "%s\tw = rest\n%s\tb = append(b, '[')\n", p, p)
		fmt.Fprintf(w, "%s\tfor %s := 0; %s < %s; %s++ {\n", p, i, i, n, i)
		fmt.Fprintf(w, "%s\t\tif %s > 0 {\n%s\t\t\tb = append(b, ',')\n%s\t\t}\n", p, i, p, p)
		if err := g.emitWireJSON(w, ft.Elem(), depth+2); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t}\n%s\tb = append(b, ']')\n%s}\n", p, p, p)
	case reflect.Struct:
		fmt.Fprintf(w, "%s{\n%s\tvar err error\n", p, p)
		fmt.Fprintf(w, "%s\tif b, w, err = (*%s)(nil).AppendWireJSON(b, w); err != nil {\n%s\t\treturn b, nil, err\n%s\t}\n%s}\n", p, ft.Name(), p, p, p)
	default:
		return fmt.Errorf("kind %s is not supported in a JSON root", ft.Kind())
	}
	return nil
}

// zeroWidth reports whether t's wire encoding is always empty: a struct of
// zero-width fields, or of none.
func zeroWidth(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false
	}
	for _, f := range wireFields(t) {
		if !zeroWidth(f.Type) {
			return false
		}
	}
	return true
}

// emitJSONEncode writes statements appending expr's JSON encoding to b.
func (g *gen) emitJSONEncode(w *bytes.Buffer, ft reflect.Type, expr string, depth int) error {
	p := ind(depth)
	if ft.Kind() != reflect.Struct {
		if err := plainJSON(ft); err != nil {
			return err
		}
	}
	switch ft.Kind() {
	case reflect.Bool:
		g.needsStrconv = true
		fmt.Fprintf(w, "%sb = strconv.AppendBool(b, bool(%s))\n", p, expr)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		g.needsStrconv = true
		fmt.Fprintf(w, "%sb = strconv.AppendInt(b, int64(%s), 10)\n", p, expr)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		g.needsStrconv = true
		fmt.Fprintf(w, "%sb = strconv.AppendUint(b, uint64(%s), 10)\n", p, expr)
	case reflect.String:
		fmt.Fprintf(w, "%sb = codec.AppendJSONString(b, string(%s))\n", p, expr)
	case reflect.Slice:
		if ft.Elem().Kind() == reflect.Uint8 {
			return fmt.Errorf("byte slices (base64 in JSON) are not supported in a JSON root")
		}
		g.tmp++
		i := fmt.Sprintf("i%d", g.tmp)
		fmt.Fprintf(w, "%sif %s == nil {\n%s\tb = append(b, \"null\"...)\n%s} else {\n", p, expr, p, p)
		fmt.Fprintf(w, "%s\tb = append(b, '[')\n", p)
		fmt.Fprintf(w, "%s\tfor %s := range %s {\n", p, i, expr)
		fmt.Fprintf(w, "%s\t\tif %s > 0 {\n%s\t\t\tb = append(b, ',')\n%s\t\t}\n", p, i, p, p)
		if err := g.emitJSONEncode(w, ft.Elem(), fmt.Sprintf("%s[%s]", expr, i), depth+2); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t}\n%s\tb = append(b, ']')\n%s}\n", p, p, p)
	case reflect.Struct:
		fmt.Fprintf(w, "%sb = %s.AppendJSON(b)\n", p, expr)
	default:
		return fmt.Errorf("kind %s is not supported in a JSON root", ft.Kind())
	}
	return nil
}

// emitJSONDecode writes statements consuming lv's strict-path JSON encoding
// from b.
func (g *gen) emitJSONDecode(w *bytes.Buffer, ft reflect.Type, lv string, depth int) error {
	p := ind(depth)
	ty, err := g.typeExpr(ft)
	if err != nil {
		return err
	}
	scalar := func(helper, narrow string) {
		g.tmp++
		v := fmt.Sprintf("v%d", g.tmp)
		fmt.Fprintf(w, "%s{\n", p)
		fmt.Fprintf(w, "%s\t%s, rest, ok := codec.%s(b)\n", p, v, helper)
		// A value the field's width cannot hold is a type error in
		// encoding/json, not a wrap-around.
		cond := "!ok"
		if narrow != "" {
			cond = fmt.Sprintf("!ok || %s(%s(%s)) != %s", narrow, ft.Kind(), v, v)
		}
		fmt.Fprintf(w, "%s\tif %s {\n%s\t\treturn \"\", false\n%s\t}\n", p, cond, p, p)
		fmt.Fprintf(w, "%s\t%s = %s(%s)\n%s\tb = rest\n%s}\n", p, lv, ty, v, p, p)
	}
	switch ft.Kind() {
	case reflect.Bool:
		scalar("JSONBool", "")
	case reflect.Int, reflect.Int64:
		scalar("JSONInt", "")
	case reflect.Int8, reflect.Int16, reflect.Int32:
		scalar("JSONInt", "int64")
	case reflect.Uint, reflect.Uint64:
		scalar("JSONUint", "")
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		scalar("JSONUint", "uint64")
	case reflect.String:
		scalar("JSONString", "")
	case reflect.Slice:
		elemTy, err := g.typeExpr(ft.Elem())
		if err != nil {
			return err
		}
		g.tmp++
		s, e := fmt.Sprintf("s%d", g.tmp), fmt.Sprintf("e%d", g.tmp)
		fmt.Fprintf(w, "%s{\n", p)
		fmt.Fprintf(w, "%s\trest, empty, ok := codec.JSONArray(b)\n", p)
		fmt.Fprintf(w, "%s\tif !ok {\n%s\t\treturn \"\", false\n%s\t}\n%s\tb = rest\n", p, p, p, p)
		fmt.Fprintf(w, "%s\t%s := %s{}\n", p, s, ty)
		fmt.Fprintf(w, "%s\tfor more := !empty; more; {\n", p)
		fmt.Fprintf(w, "%s\t\tvar %s %s\n", p, e, elemTy)
		if err := g.emitJSONDecode(w, ft.Elem(), e, depth+2); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t\t%s = append(%s, %s)\n", p, s, s, e)
		fmt.Fprintf(w, "%s\t\tif b, more, ok = codec.JSONNext(b); !ok {\n%s\t\t\treturn \"\", false\n%s\t\t}\n", p, p, p)
		fmt.Fprintf(w, "%s\t}\n%s\t%s = %s\n%s}\n", p, p, lv, s, p)
	case reflect.Struct:
		fmt.Fprintf(w, "%sif b, ok = %s.DecodeJSON(b); !ok {\n%s\treturn \"\", false\n%s}\n", p, lv, p, p)
	default:
		return fmt.Errorf("kind %s is not supported in a JSON root", ft.Kind())
	}
	return nil
}
