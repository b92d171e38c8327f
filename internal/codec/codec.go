// Package codec implements the suite's compact binary wire format, playing
// the role of the code Thrift would generate for every RPC message type.
// Encoding is positional: both sides must agree on the Go struct definition,
// exactly as both sides of a Thrift RPC share the IDL. Integers use
// zigzag/varint encoding, strings and slices are length-prefixed, pointers
// carry a nil flag.
//
// Marshal compiles a per-type plan of field encoders on first use and caches
// it, so steady-state encoding does no reflection-based type dispatch.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// ErrShortBuffer is returned when decoding runs out of input bytes.
var ErrShortBuffer = errors.New("codec: short buffer")

// ErrTrailingBytes is returned by Unmarshal when input remains after the
// value is fully decoded, which indicates a sender/receiver type mismatch.
var ErrTrailingBytes = errors.New("codec: trailing bytes after value")

// maxLen bounds decoded string/slice/map lengths to guard against corrupt
// or hostile input blowing up allocation.
const maxLen = 1 << 26 // 64M elements

// maxEagerLen bounds how many slice elements / map buckets a decoder will
// allocate up front on the strength of a length header alone; anything
// larger must earn its allocation element by element. Honest RPC payloads
// sit far below this, so the fast path is unchanged.
const maxEagerLen = 1 << 10

// Marshal encodes v into a new byte slice.
func Marshal(v any) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal encodes v, appending to buf, and returns the extended
// slice. Registered fast-path types (see Message and Register) dispatch to
// their generated marshaler; a pointer implementing Message encodes its
// pointee with no reflection at all. Everything else goes through the
// reflect plans.
func AppendMarshal(buf []byte, v any) ([]byte, error) {
	if out, done, err := fastAppend(buf, v); done {
		return out, err
	}
	return appendMarshalReflect(buf, v)
}

// MarshalReflect encodes v through the reflect plans unconditionally,
// bypassing any registered fast path. The wire bytes are identical for a
// correct registration — the differential fuzz harness pins that — so this
// exists for that harness and for experiments that want the reflect
// baseline as a control arm.
func MarshalReflect(v any) ([]byte, error) {
	return appendMarshalReflect(nil, v)
}

func appendMarshalReflect(buf []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, errors.New("codec: cannot marshal nil interface")
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return nil, err
	}
	return p.enc(buf, rv)
}

// Unmarshal decodes data into v, which must be a non-nil pointer. The whole
// input must be consumed. A target implementing Message decodes through its
// generated unmarshaler instead of the reflect plans.
func Unmarshal(data []byte, v any) error {
	if m, ok := v.(Message); ok {
		return Whole(m.DecodeFrom(data))
	}
	if p, ok := v.(*[]string); ok {
		ss, rest, err := DecStrings(data)
		if err == nil {
			*p = ss
		}
		return Whole(rest, err)
	}
	return UnmarshalReflect(data, v)
}

// Whole is Unmarshal's verdict on a DecodeFrom called on a concrete type —
// which, unlike a decode through an interface, lets the target stay on the
// caller's stack: the decode succeeded and consumed all of its input.
func Whole(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		return ErrTrailingBytes
	}
	return err
}

// UnmarshalReflect decodes through the reflect plans unconditionally,
// bypassing any registered fast path — the decode-side twin of
// MarshalReflect.
func UnmarshalReflect(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errors.New("codec: Unmarshal target must be a non-nil pointer")
	}
	elem := rv.Elem()
	p, err := planFor(elem.Type())
	if err != nil {
		return err
	}
	rest, err := p.dec(data, elem)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// Valid reports whether data is exactly one wire encoding of a T — nil if
// and only if Unmarshal(data, new(T)) would return nil — without building
// the value: it walks T's skipper, which applies every check the decoders do
// (length bounds, narrow-integer and float32 overflow, trailing bytes) and
// allocates nothing. A tier that forwards stored encodings instead of
// decoding and re-encoding them validates with this first.
func Valid[T any](data []byte) error {
	return Whole(Skip[T](data))
}

// Skip consumes one wire encoding of a T from the front of data and returns
// the rest: the walk Valid makes, every check a decoder applies and nothing
// built, for a tier that steps over encodings it forwards. A registered
// type, a slice of one and []string take their generated or codec-owned
// skipper, as Marshal takes AppendTo; any other type walks its reflect plan.
func Skip[T any](data []byte) ([]byte, error) {
	switch p := any((*T)(nil)).(type) {
	case skipper:
		return p.SkipFrom(data)
	case *[]string:
		return skipStrings(data)
	}
	t := reflect.TypeFor[T]()
	if skip, ok := sliceSkips.Load(t); ok {
		return skip.(skipFunc)(data)
	}
	return skipType(t, data)
}

func skipType(t reflect.Type, data []byte) ([]byte, error) {
	p, err := planFor(t)
	if err != nil {
		return nil, err
	}
	return p.skip(data)
}

type encFunc func(buf []byte, v reflect.Value) ([]byte, error)
type decFunc func(data []byte, v reflect.Value) (rest []byte, err error)

// skipFunc consumes one encoded value from the front of data, rejecting
// exactly what the matching decFunc rejects.
type skipFunc func(data []byte) (rest []byte, err error)

type plan struct {
	enc  encFunc
	dec  decFunc
	skip skipFunc
}

// Plan caching: completed plans live in a lock-free read-mostly map; builds
// run under a mutex with a per-build session map that resolves recursive
// types to an in-progress placeholder. Placeholders are filled in before
// the build publishes anything, so readers never observe a partial plan.
var (
	planCache sync.Map // reflect.Type -> *plan (fully built only)
	buildMu   sync.Mutex
)

func planFor(t reflect.Type) (*plan, error) {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan), nil
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	if p, ok := planCache.Load(t); ok {
		return p.(*plan), nil
	}
	session := make(map[reflect.Type]*plan)
	p, err := buildLocked(t, session)
	if err != nil {
		return nil, err
	}
	for ty, pl := range session {
		planCache.Store(ty, pl)
	}
	return p, nil
}

func buildLocked(t reflect.Type, session map[reflect.Type]*plan) (*plan, error) {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan), nil
	}
	if p, ok := session[t]; ok {
		return p, nil // recursive reference to an in-progress plan
	}
	placeholder := &plan{}
	session[t] = placeholder
	built, err := buildPlan(t, session)
	if err != nil {
		delete(session, t)
		return nil, err
	}
	*placeholder = built
	return placeholder, nil
}

func buildPlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	switch t.Kind() {
	case reflect.Bool:
		return plan{encBool, decBool, skipBool}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return plan{encInt, decInt, skipInt(t)}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return plan{encUint, decUint, skipUint(t)}, nil
	case reflect.Float32:
		return plan{encFloat, decFloat, skipFloat32}, nil
	case reflect.Float64:
		return plan{encFloat, decFloat, skipFloat64}, nil
	case reflect.String:
		return plan{encString, decString, skipBytes}, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return plan{encBytes, decBytes, skipBytes}, nil
		}
		return buildSlicePlan(t, session)
	case reflect.Array:
		return buildArrayPlan(t, session)
	case reflect.Map:
		return buildMapPlan(t, session)
	case reflect.Struct:
		return buildStructPlan(t, session)
	case reflect.Pointer:
		return buildPtrPlan(t, session)
	default:
		return plan{}, fmt.Errorf("codec: unsupported type %s", t)
	}
}

func encBool(buf []byte, v reflect.Value) ([]byte, error) {
	if v.Bool() {
		return append(buf, 1), nil
	}
	return append(buf, 0), nil
}

func decBool(data []byte, v reflect.Value) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrShortBuffer
	}
	v.SetBool(data[0] != 0)
	return data[1:], nil
}

func skipBool(data []byte) ([]byte, error) {
	_, rest, err := DecBool(data)
	return rest, err
}

func encInt(buf []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendVarint(buf, v.Int()), nil
}

func decInt(data []byte, v reflect.Value) ([]byte, error) {
	x, n := binary.Varint(data)
	if n <= 0 {
		return nil, ErrShortBuffer
	}
	if v.OverflowInt(x) {
		return nil, fmt.Errorf("codec: value %d overflows %s", x, v.Type())
	}
	v.SetInt(x)
	return data[n:], nil
}

// skipInt checks the range of t's width, as decInt's OverflowInt does.
func skipInt(t reflect.Type) skipFunc {
	shift := 64 - t.Bits()
	return func(data []byte) ([]byte, error) {
		x, n := binary.Varint(data)
		if n <= 0 {
			return nil, ErrShortBuffer
		}
		if (x<<shift)>>shift != x {
			return nil, fmt.Errorf("codec: value %d overflows %s", x, t)
		}
		return data[n:], nil
	}
}

func encUint(buf []byte, v reflect.Value) ([]byte, error) {
	return binary.AppendUvarint(buf, v.Uint()), nil
}

func decUint(data []byte, v reflect.Value) ([]byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, ErrShortBuffer
	}
	if v.OverflowUint(x) {
		return nil, fmt.Errorf("codec: value %d overflows %s", x, v.Type())
	}
	v.SetUint(x)
	return data[n:], nil
}

func skipUint(t reflect.Type) skipFunc {
	shift := 64 - t.Bits()
	return func(data []byte) ([]byte, error) {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, ErrShortBuffer
		}
		if (x<<shift)>>shift != x {
			return nil, fmt.Errorf("codec: value %d overflows %s", x, t)
		}
		return data[n:], nil
	}
}

func encFloat(buf []byte, v reflect.Value) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
}

func decFloat(data []byte, v reflect.Value) ([]byte, error) {
	if len(data) < 8 {
		return nil, ErrShortBuffer
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(data))
	if v.OverflowFloat(f) {
		return nil, fmt.Errorf("codec: value %g overflows %s", f, v.Type())
	}
	v.SetFloat(f)
	return data[8:], nil
}

func skipFloat64(data []byte) ([]byte, error) {
	_, rest, err := DecFloat64(data)
	return rest, err
}

func skipFloat32(data []byte) ([]byte, error) {
	_, rest, err := DecFloat32(data)
	return rest, err
}

func encString(buf []byte, v reflect.Value) ([]byte, error) {
	s := v.String()
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...), nil
}

func decLen(data []byte) (int, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, ErrShortBuffer
	}
	if n > maxLen {
		return 0, nil, fmt.Errorf("codec: length %d exceeds limit", n)
	}
	return int(n), data[w:], nil
}

func decString(data []byte, v reflect.Value) ([]byte, error) {
	n, rest, err := decLen(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < n {
		return nil, ErrShortBuffer
	}
	v.SetString(string(rest[:n]))
	return rest[n:], nil
}

// skipBytes skips a length-prefixed string or byte slice.
func skipBytes(data []byte) ([]byte, error) {
	n, rest, err := decLen(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < n {
		return nil, ErrShortBuffer
	}
	return rest[n:], nil
}

func encBytes(buf []byte, v reflect.Value) ([]byte, error) {
	b := v.Bytes()
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...), nil
}

func decBytes(data []byte, v reflect.Value) ([]byte, error) {
	n, rest, err := decLen(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < n {
		return nil, ErrShortBuffer
	}
	b := make([]byte, n)
	copy(b, rest[:n])
	v.SetBytes(b)
	return rest[n:], nil
}

func buildSlicePlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	elem, err := buildLocked(t.Elem(), session)
	if err != nil {
		return plan{}, err
	}
	enc := func(buf []byte, v reflect.Value) ([]byte, error) {
		n := v.Len()
		buf = binary.AppendUvarint(buf, uint64(n))
		for i := 0; i < n; i++ {
			var err error
			buf, err = elem.enc(buf, v.Index(i))
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	dec := func(data []byte, v reflect.Value) ([]byte, error) {
		n, rest, err := decLen(data)
		if err != nil {
			return nil, err
		}
		// Don't size the allocation from the claimed length alone: a corrupt
		// three-byte header can claim 64M elements. Start at a bounded size
		// and grow only as elements actually decode.
		size := n
		if size > maxEagerLen {
			size = maxEagerLen
		}
		s := reflect.MakeSlice(t, size, size)
		for i := 0; i < n; i++ {
			if i == s.Len() {
				grow := s.Len() * 2
				if grow > n {
					grow = n
				}
				ns := reflect.MakeSlice(t, grow, grow)
				reflect.Copy(ns, s)
				s = ns
			}
			rest, err = elem.dec(rest, s.Index(i))
			if err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return rest, nil
	}
	skip := func(data []byte) ([]byte, error) {
		n, rest, err := decLen(data)
		for i := 0; i < n && err == nil; i++ {
			rest, err = elem.skip(rest)
		}
		return rest, err
	}
	return plan{enc, dec, skip}, nil
}

func buildArrayPlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	elem, err := buildLocked(t.Elem(), session)
	if err != nil {
		return plan{}, err
	}
	n := t.Len()
	enc := func(buf []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n; i++ {
			buf, err = elem.enc(buf, v.Index(i))
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	dec := func(data []byte, v reflect.Value) ([]byte, error) {
		var err error
		for i := 0; i < n; i++ {
			data, err = elem.dec(data, v.Index(i))
			if err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	skip := func(data []byte) ([]byte, error) {
		var err error
		for i := 0; i < n && err == nil; i++ {
			data, err = elem.skip(data)
		}
		return data, err
	}
	return plan{enc, dec, skip}, nil
}

func buildMapPlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	keyPlan, err := buildLocked(t.Key(), session)
	if err != nil {
		return plan{}, err
	}
	valPlan, err := buildLocked(t.Elem(), session)
	if err != nil {
		return plan{}, err
	}
	enc := func(buf []byte, v reflect.Value) ([]byte, error) {
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		// Iterate in sorted-key order when keys are strings or ints so the
		// encoding is deterministic; determinism keeps benches and golden
		// tests stable.
		keys := v.MapKeys()
		sortKeys(keys)
		var err error
		for _, k := range keys {
			buf, err = keyPlan.enc(buf, k)
			if err != nil {
				return nil, err
			}
			buf, err = valPlan.enc(buf, v.MapIndex(k))
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	dec := func(data []byte, v reflect.Value) ([]byte, error) {
		n, rest, err := decLen(data)
		if err != nil {
			return nil, err
		}
		hint := n
		if hint > maxEagerLen {
			hint = maxEagerLen
		}
		m := reflect.MakeMapWithSize(t, hint)
		for i := 0; i < n; i++ {
			k := reflect.New(t.Key()).Elem()
			rest, err = keyPlan.dec(rest, k)
			if err != nil {
				return nil, err
			}
			val := reflect.New(t.Elem()).Elem()
			rest, err = valPlan.dec(rest, val)
			if err != nil {
				return nil, err
			}
			m.SetMapIndex(k, val)
		}
		v.Set(m)
		return rest, nil
	}
	skip := func(data []byte) ([]byte, error) {
		n, rest, err := decLen(data)
		for i := 0; i < n && err == nil; i++ {
			if rest, err = keyPlan.skip(rest); err == nil {
				rest, err = valPlan.skip(rest)
			}
		}
		return rest, err
	}
	return plan{enc, dec, skip}, nil
}

func sortKeys(keys []reflect.Value) {
	if len(keys) < 2 {
		return
	}
	switch keys[0].Kind() {
	case reflect.String:
		sortSlice(keys, func(a, b reflect.Value) bool { return a.String() < b.String() })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sortSlice(keys, func(a, b reflect.Value) bool { return a.Int() < b.Int() })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		sortSlice(keys, func(a, b reflect.Value) bool { return a.Uint() < b.Uint() })
	}
}

// sortSlice is an insertion sort: key sets in RPC messages are small, and
// this avoids pulling in sort for reflect.Value comparators.
func sortSlice(keys []reflect.Value, less func(a, b reflect.Value) bool) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func buildStructPlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	type fieldPlan struct {
		idx  int
		plan *plan
	}
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Tag.Get("codec") == "-" {
			continue
		}
		p, err := buildLocked(f.Type, session)
		if err != nil {
			return plan{}, fmt.Errorf("%s.%s: %w", t, f.Name, err)
		}
		fields = append(fields, fieldPlan{i, p})
	}
	enc := func(buf []byte, v reflect.Value) ([]byte, error) {
		var err error
		for _, f := range fields {
			buf, err = f.plan.enc(buf, v.Field(f.idx))
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	}
	dec := func(data []byte, v reflect.Value) ([]byte, error) {
		var err error
		for _, f := range fields {
			data, err = f.plan.dec(data, v.Field(f.idx))
			if err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	skip := func(data []byte) ([]byte, error) {
		var err error
		for _, f := range fields {
			if data, err = f.plan.skip(data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return plan{enc, dec, skip}, nil
}

func buildPtrPlan(t reflect.Type, session map[reflect.Type]*plan) (plan, error) {
	elem, err := buildLocked(t.Elem(), session)
	if err != nil {
		return plan{}, err
	}
	enc := func(buf []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(buf, 0), nil
		}
		return elem.enc(append(buf, 1), v.Elem())
	}
	dec := func(data []byte, v reflect.Value) ([]byte, error) {
		if len(data) < 1 {
			return nil, ErrShortBuffer
		}
		present := data[0] != 0
		data = data[1:]
		if !present {
			v.SetZero()
			return data, nil
		}
		p := reflect.New(t.Elem())
		data, err := elem.dec(data, p.Elem())
		if err != nil {
			return nil, err
		}
		v.Set(p)
		return data, nil
	}
	skip := func(data []byte) ([]byte, error) {
		if len(data) < 1 {
			return nil, ErrShortBuffer
		}
		if data[0] == 0 {
			return data[1:], nil
		}
		return elem.skip(data[1:])
	}
	return plan{enc, dec, skip}, nil
}
