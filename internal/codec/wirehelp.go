package codec

// Exported primitive encoders/decoders for generated marshalers. Each is
// the hand-rolled twin of one reflect-plan encoder in codec.go and must
// stay byte-for-byte compatible with it: ints are zigzag varints, uints are
// uvarints, floats are always 8-byte little-endian float64 bits (float32
// widens), strings/bytes/collections carry a uvarint length, and decode
// enforces the same maxLen bound and narrow-integer overflow checks the
// plans do. Decoders never alias their input: strings and byte slices are
// copied out, so the caller may recycle the buffer as soon as decode
// returns — all but DecStringBytes, which says so. A generated decoder takes
// its strings from one copy of its input (DecStringOf), so a decoded message
// costs one string allocation however many strings it holds.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendFloat64 appends v as 8 little-endian bytes of its IEEE-754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat32 appends v widened to float64 — the wire format carries all
// floats at 8 bytes, exactly as the reflect plan does.
func AppendFloat32(b []byte, v float32) []byte {
	return AppendFloat64(b, float64(v))
}

// AppendString appends a uvarint length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length followed by v.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendLen appends a collection length prefix (slice, map).
func AppendLen(b []byte, n int) []byte {
	return binary.AppendUvarint(b, uint64(n))
}

// LenSize is the size of n as AppendLen, or a length prefix, writes it.
func LenSize(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// DecBool consumes one byte.
func DecBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrShortBuffer
	}
	return b[0] != 0, b[1:], nil
}

// DecInt consumes a zigzag varint.
func DecInt(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return x, b[n:], nil
}

// DecInt8 consumes a zigzag varint and range-checks it into int8.
func DecInt8(b []byte) (int8, []byte, error) {
	x, rest, err := DecInt(b)
	if err != nil {
		return 0, nil, err
	}
	if x < math.MinInt8 || x > math.MaxInt8 {
		return 0, nil, fmt.Errorf("codec: value %d overflows int8", x)
	}
	return int8(x), rest, nil
}

// DecInt16 consumes a zigzag varint and range-checks it into int16.
func DecInt16(b []byte) (int16, []byte, error) {
	x, rest, err := DecInt(b)
	if err != nil {
		return 0, nil, err
	}
	if x < math.MinInt16 || x > math.MaxInt16 {
		return 0, nil, fmt.Errorf("codec: value %d overflows int16", x)
	}
	return int16(x), rest, nil
}

// DecInt32 consumes a zigzag varint and range-checks it into int32.
func DecInt32(b []byte) (int32, []byte, error) {
	x, rest, err := DecInt(b)
	if err != nil {
		return 0, nil, err
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return 0, nil, fmt.Errorf("codec: value %d overflows int32", x)
	}
	return int32(x), rest, nil
}

// DecUint consumes a uvarint.
func DecUint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return x, b[n:], nil
}

// DecUint8 consumes a uvarint and range-checks it into uint8.
func DecUint8(b []byte) (uint8, []byte, error) {
	x, rest, err := DecUint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > math.MaxUint8 {
		return 0, nil, fmt.Errorf("codec: value %d overflows uint8", x)
	}
	return uint8(x), rest, nil
}

// DecUint16 consumes a uvarint and range-checks it into uint16.
func DecUint16(b []byte) (uint16, []byte, error) {
	x, rest, err := DecUint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > math.MaxUint16 {
		return 0, nil, fmt.Errorf("codec: value %d overflows uint16", x)
	}
	return uint16(x), rest, nil
}

// DecUint32 consumes a uvarint and range-checks it into uint32.
func DecUint32(b []byte) (uint32, []byte, error) {
	x, rest, err := DecUint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > math.MaxUint32 {
		return 0, nil, fmt.Errorf("codec: value %d overflows uint32", x)
	}
	return uint32(x), rest, nil
}

// DecFloat64 consumes 8 little-endian bytes of IEEE-754 bits.
func DecFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrShortBuffer
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// DecFloat32 consumes a wire float64 and narrows it, rejecting magnitudes
// that overflow float32 exactly as reflect's OverflowFloat does (infinities
// pass; finite values beyond MaxFloat32 do not).
func DecFloat32(b []byte) (float32, []byte, error) {
	f, rest, err := DecFloat64(b)
	if err != nil {
		return 0, nil, err
	}
	a := f
	if a < 0 {
		a = -a
	}
	if math.MaxFloat32 < a && a <= math.MaxFloat64 {
		return 0, nil, fmt.Errorf("codec: value %g overflows float32", f)
	}
	return float32(f), rest, nil
}

// DecStringOf consumes a length-prefixed string from b, a suffix of s, and
// returns it as a substring of s — the decode's one copy of its input, which
// a caller that stores the string for long must not pin: it clones it.
func DecStringOf(b []byte, s string) (string, []byte, error) {
	n, rest, err := DecLen(b)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < n {
		return "", nil, ErrShortBuffer
	}
	if n == 0 {
		return "", rest, nil
	}
	at := len(s) - len(rest)
	return s[at : at+n], rest[n:], nil
}

// DecStringBytes consumes a length-prefixed string without copying it: the
// bytes returned are b's own, for a caller that reads them before b is
// recycled.
func DecStringBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := DecLen(b)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < n {
		return nil, nil, ErrShortBuffer
	}
	return rest[:n], rest[n:], nil
}

// DecBytes consumes a length-prefixed byte slice, copying it out of b. A
// zero length decodes to a non-nil empty slice, matching the reflect plan.
func DecBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := DecLen(b)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < n {
		return nil, nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// AppendStrings appends ss as a []string: its length, then each string's.
func AppendStrings(b []byte, ss []string) []byte {
	b = AppendLen(b, len(ss))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// DecStrings consumes a []string. Its strings are substrings of one copy of
// the list's encoding, as a generated decoder's are, so a list costs two
// allocations however long it is; an empty list decodes to an empty non-nil
// slice, as the reflect plan's does.
func DecStrings(b []byte) ([]string, []byte, error) {
	rest, err := skipStrings(b)
	if err != nil {
		return nil, nil, err
	}
	enc := b[:len(b)-len(rest)]
	s := string(enc)
	n, cur, _ := decLen(enc)
	out := make([]string, n) // every string of the n took at least a byte
	for i := range out {
		out[i], cur, _ = DecStringOf(cur, s)
	}
	return out, rest, nil
}

// skipStrings is the skipper of a []string.
func skipStrings(b []byte) ([]byte, error) {
	n, rest, err := decLen(b)
	for i := 0; i < n && err == nil; i++ {
		rest, err = skipBytes(rest)
	}
	return rest, err
}

// DecLen consumes a collection length prefix, enforcing the same bound the
// reflect plans apply against hostile headers.
func DecLen(b []byte) (int, []byte, error) {
	return decLen(b)
}

// EagerLen caps an up-front allocation hint from a decoded length header:
// anything beyond the bound must earn its space element by element, so a
// corrupt three-byte header cannot buy a giant allocation.
func EagerLen(n int) int {
	if n > maxEagerLen {
		return maxEagerLen
	}
	return n
}
