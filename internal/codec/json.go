package codec

// JSON fast path for the REST front door, the sibling of the wire fast path
// in fast.go. A type opts in by carrying the AppendJSON/DecodeJSON methods
// cmd/codecgen emits for the JSON roots in its manifest; internal/rest
// encodes and decodes every body through AppendMarshalJSON/UnmarshalJSON
// here, which try the generated codec first and hand anything it declines
// to encoding/json.
//
// The contract that keeps the two interchangeable:
//
//   - AppendJSON writes byte for byte what json.Marshal would.
//   - DecodeJSON accepts only the strict shape both encoders produce —
//     every field present once, in declaration order, under its exact name,
//     no null, strings free of surrogate escapes and invalid UTF-8, integers
//     without fraction or exponent and in range. On that path the decoded
//     value is a function of the input alone, so it is built aside and
//     stored only on success. Anything else is declined with the target
//     untouched, and encoding/json decodes the whole body: behaviour off
//     the strict path is encoding/json's by construction.

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"unicode/utf8"
)

// JSONMessage is the JSON fast-path contract. AppendJSON appends the
// receiver's JSON encoding to b. DecodeJSON consumes one strict-path
// encoding from the front of s into the receiver and returns the remainder;
// on ok == false the receiver may be partly written, so callers decode into
// a scratch value and copy it out on success. Decoded strings that needed no
// unescaping are substrings of s: a body is copied into one string and its
// values share it, instead of each being allocated — which also means that
// retaining any one of them retains the body's worth of bytes.
//
// AppendWireJSON transcodes: it appends, as JSON, the value whose wire
// encoding starts w — byte for byte the AppendJSON of the wire-decoded value,
// which it never builds — and returns the rest of w. It does not read its
// receiver, so a nil one serves. Input the wire decoder refuses is an error,
// and b then holds a partial encoding for the caller to discard.
type JSONMessage interface {
	AppendJSON(b []byte) []byte
	DecodeJSON(s string) (rest string, ok bool)
	AppendWireJSON(b, w []byte) (out, rest []byte, err error)
}

type jsonFuncs struct {
	appendVal func(buf []byte, v any) ([]byte, bool)
	decode    func(data string, v any) bool
}

var (
	jsonReg   sync.Map // reflect.Type of T, *T, []T and *[]T -> *jsonFuncs
	jsonMu    sync.Mutex
	jsonTypes []reflect.Type
)

// RegisterJSON records T's generated JSON codec for values of type T, *T,
// []T and *[]T — the four shapes a REST handler returns and a REST client
// decodes into. Generated wire_gen.go files call it from init().
func RegisterJSON[T any, PT interface {
	JSONMessage
	*T
}]() {
	fns := &jsonFuncs{
		appendVal: func(buf []byte, v any) ([]byte, bool) {
			switch x := v.(type) {
			case T:
				return PT(&x).AppendJSON(buf), true
			case *T:
				if x != nil {
					return PT(x).AppendJSON(buf), true
				}
			case []T:
				return appendJSONSlice[T, PT](buf, x)
			case *[]T:
				if x != nil {
					return appendJSONSlice[T, PT](buf, *x)
				}
			}
			return buf, false // nil pointer or nil slice: "null" is encoding/json's to write
		},
		decode: func(data string, v any) bool {
			switch x := v.(type) {
			case *T:
				if x == nil {
					return false
				}
				var t T
				rest, ok := PT(&t).DecodeJSON(data)
				if !ok || len(JSONSpace(rest)) != 0 {
					return false
				}
				*x = t
				return true
			case *[]T:
				rest, empty, ok := JSONArray(data)
				if x == nil || !ok {
					return false
				}
				// One pass to size the slice: a '{' outside a string opens
				// an element, one inside only over-counts.
				s := make([]T, 0, EagerLen(strings.Count(rest, "{")))
				for more := !empty; more; {
					var zero T
					s = append(s, zero) // decoded in place: s is not the caller's until stored
					if rest, ok = PT(&s[len(s)-1]).DecodeJSON(rest); !ok {
						return false
					}
					if rest, more, ok = JSONNext(rest); !ok {
						return false
					}
				}
				if len(JSONSpace(rest)) != 0 {
					return false
				}
				*x = s
				return true
			}
			return false // not a pointer: encoding/json reports it
		},
	}
	t := reflect.TypeFor[T]()
	_, loaded := jsonReg.Swap(t, fns)
	jsonReg.Store(reflect.PointerTo(t), fns)
	jsonReg.Store(reflect.SliceOf(t), fns)
	jsonReg.Store(reflect.PointerTo(reflect.SliceOf(t)), fns)
	if !loaded {
		jsonMu.Lock()
		jsonTypes = append(jsonTypes, t)
		jsonMu.Unlock()
	}
}

func appendJSONSlice[T any, PT interface {
	JSONMessage
	*T
}](buf []byte, s []T) ([]byte, bool) {
	if s == nil {
		return buf, false
	}
	buf = append(buf, '[')
	for i := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = PT(&s[i]).AppendJSON(buf)
	}
	return append(buf, ']'), true
}

// AppendWireJSONList appends, as a JSON array, the []T whose wire encoding
// starts w, and returns the rest of w: byte for byte the AppendMarshalJSON of
// the wire-decoded list, which is never nil, so an empty one is [].
func AppendWireJSONList[T any, PT interface {
	JSONMessage
	*T
}](b, w []byte) ([]byte, []byte, error) {
	n, w, err := DecLen(w)
	if err != nil {
		return b, nil, err
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if b, w, err = PT(nil).AppendWireJSON(b, w); err != nil {
			return b, nil, err
		}
	}
	return append(b, ']'), w, nil
}

// AppendMarshalJSON appends v's JSON encoding to buf: through v's generated
// codec when its type is registered, through encoding/json otherwise (and
// for a nil pointer or slice of a registered type, whose "null" is
// encoding/json's to write). The bytes are json.Marshal's either way.
func AppendMarshalJSON(buf []byte, v any) ([]byte, error) {
	if v != nil {
		if fns, ok := jsonReg.Load(reflect.TypeOf(v)); ok {
			if out, ok := fns.(*jsonFuncs).appendVal(buf, v); ok {
				return out, nil
			}
		}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return buf, err
	}
	if cap(buf) == 0 {
		return data, nil // nothing to append to: the fresh encoding is the result
	}
	return append(buf, data...), nil
}

// UnmarshalJSON decodes data into v exactly as json.Unmarshal does: through
// v's generated codec while data stays on the strict path, and otherwise —
// v untouched — by handing the whole of data to encoding/json.
func UnmarshalJSON(data []byte, v any) error {
	if v != nil {
		// The one copy of the body: every string decoded from it is a
		// substring of this one (see JSONMessage).
		if fns, ok := jsonReg.Load(reflect.TypeOf(v)); ok && fns.(*jsonFuncs).decode(string(data), v) {
			return nil
		}
	}
	return json.Unmarshal(data, v)
}

// What follows are the primitives generated JSON codecs are written in.

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes json.Marshal copies into a string as they
// are: everything from space up except the quote, the backslash and the
// HTML-unsafe <, > and &. jsonPlain marks the bytes a string body may hold
// unescaped: the same, plus those three and every non-ASCII byte.
var jsonSafe, jsonPlain [256]bool

func init() {
	for c := ' '; c < 256; c++ {
		jsonPlain[c] = c != '"' && c != '\\'
		jsonSafe[c] = jsonPlain[c] && c < utf8.RuneSelf && c != '<' && c != '>' && c != '&'
	}
}

// AppendJSONString appends s as a JSON string exactly as json.Marshal
// writes it: HTML-unsafe characters, control characters, U+2028/9 and
// invalid UTF-8 escaped.
func AppendJSONString(b []byte, s string) []byte {
	return appendJSONText(b, s, utf8.DecodeRuneInString)
}

// AppendJSONBytes is AppendJSONString for a string's bytes — a wire
// encoding's, say — which it does not copy into a string first.
func AppendJSONBytes(b, s []byte) []byte {
	return appendJSONText(b, s, utf8.DecodeRune)
}

func appendJSONText[S ~string | ~[]byte](b []byte, s S, decodeRune func(S) (rune, int)) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := decodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// JSONSpace skips JSON whitespace.
func JSONSpace(b string) string {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\n' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}

// JSONLit consumes the delimiter or literal lit after optional whitespace.
func JSONLit(b, lit string) (string, bool) {
	b = JSONSpace(b)
	if len(b) < len(lit) || b[:len(lit)] != lit {
		return "", false
	}
	return b[len(lit):], true
}

// JSONKey consumes what opens an object member: sep ("{" before the first,
// "," before the others), the key (passed with its quotes) and the colon.
func JSONKey(b, sep, quoted string) (string, bool) {
	b, ok := JSONLit(b, sep)
	if ok {
		b, ok = JSONLit(b, quoted)
	}
	if ok {
		b, ok = JSONLit(b, ":")
	}
	return b, ok
}

// JSONArray consumes an array's '[', reporting whether the array is empty
// (its ']' consumed too).
func JSONArray(b string) (rest string, empty, ok bool) {
	if b, ok = JSONLit(b, "["); !ok {
		return "", false, false
	}
	if rest, empty = JSONLit(b, "]"); empty {
		return rest, true, true
	}
	return b, false, true
}

// JSONNext consumes what follows an array element: a ',' (more is true) or
// the closing ']'.
func JSONNext(b string) (rest string, more, ok bool) {
	b = JSONSpace(b)
	if len(b) == 0 || (b[0] != ',' && b[0] != ']') {
		return "", false, false
	}
	return b[1:], b[0] == ',', true
}

// JSONString consumes a JSON string value after optional whitespace. A
// value without escapes is returned as a substring of b, not a copy. It
// declines surrogate escapes and invalid UTF-8, which encoding/json repairs
// in ways of its own.
func JSONString(b string) (s, rest string, ok bool) {
	b = JSONSpace(b)
	if len(b) == 0 || b[0] != '"' {
		return "", "", false
	}
	i := 1
	for i < len(b) && jsonPlain[b[i]] {
		i++
	}
	switch {
	case i == len(b) || b[i] < ' ':
		return "", "", false
	case b[i] == '\\':
		return jsonUnescape(b, i)
	case !utf8.ValidString(b[1:i]): // fast for ASCII, which it checks eight bytes at a time
		return "", "", false
	}
	return b[1:i], b[i+1:], true
}

// jsonUnescape finishes JSONString for a string whose first escape is at
// b[i].
func jsonUnescape(b string, i int) (s, rest string, ok bool) {
	out := append(make([]byte, 0, len(b[1:i])+32), b[1:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				return "", "", false
			}
			return string(out), b[i+1:], true
		case c < ' ':
			return "", "", false
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", "", false
		}
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+6 > len(b) {
				return "", "", false
			}
			var r rune
			for _, h := range []byte(b[i+2 : i+6]) {
				switch {
				case '0' <= h && h <= '9':
					r = r<<4 | rune(h-'0')
				case 'a' <= h && h <= 'f':
					r = r<<4 | rune(h-'a'+10)
				case 'A' <= h && h <= 'F':
					r = r<<4 | rune(h-'A'+10)
				default:
					return "", "", false
				}
			}
			if 0xD800 <= r && r < 0xE000 {
				return "", "", false
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default:
			return "", "", false
		}
		i += 2
	}
	return "", "", false
}

// JSONInt consumes an integer literal after optional whitespace; a
// fraction, an exponent or a value outside int64 is declined.
func JSONInt(b string) (v int64, rest string, ok bool) {
	b = JSONSpace(b)
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	u, rest, ok := jsonDigits(b)
	switch {
	case !ok || u > 1<<63 || (u == 1<<63 && !neg):
		return 0, "", false
	case neg:
		return -int64(u), rest, true
	}
	return int64(u), rest, true
}

// JSONUint consumes an unsigned integer literal after optional whitespace.
func JSONUint(b string) (v uint64, rest string, ok bool) {
	return jsonDigits(JSONSpace(b))
}

func jsonDigits(b string) (v uint64, rest string, ok bool) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, "", false
		}
		v = v*10 + d
	}
	if i == 0 || (i > 1 && b[0] == '0') {
		return 0, "", false // no digits, or a leading zero
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, "", false
	}
	return v, b[i:], true
}

// JSONBool consumes true or false after optional whitespace.
func JSONBool(b string) (v bool, rest string, ok bool) {
	if rest, ok = JSONLit(b, "true"); ok {
		return true, rest, true
	}
	rest, ok = JSONLit(b, "false")
	return false, rest, ok
}
