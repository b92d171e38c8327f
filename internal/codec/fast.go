package codec

// Fast path: pre-registered message types bypass the reflect plans
// entirely. A type opts in by carrying pointer-receiver AppendTo/DecodeFrom
// methods — normally emitted by cmd/codecgen, occasionally hand-written —
// that produce byte-for-byte the same wire encoding the reflect plan would
// (the differential fuzz harness holds them to that). Marshal and Unmarshal
// route through the fast path automatically:
//
//   - a pointer argument that implements Message dispatches directly, with
//     no reflection and no allocation beyond what the marshaler itself does;
//   - a value argument of a Register-ed type dispatches through a stored
//     closure that re-materializes the pointer receiver on the stack;
//   - a []string, or a *[]string to decode into, is the codec's own
//     (AppendStrings, DecStrings): the ID lists the services pass around;
//   - everything else falls back to the reflect plans, so unregistered
//     types keep working unchanged.
//
// MarshalReflect/UnmarshalReflect expose the plan path directly for
// differential testing and for experiments that want the pre-fast-path
// baseline as a control arm.

import (
	"errors"
	"reflect"
	"sync"
)

// ErrNilMessage is returned by generated marshalers invoked on a nil
// receiver: a nil typed pointer has no value to encode, and on decode no
// struct to fill.
var ErrNilMessage = errors.New("codec: nil message")

// Message is the fast-path contract. AppendTo appends the receiver's wire
// encoding to b and returns the extended slice; DecodeFrom consumes the
// receiver's encoding from the front of b and returns the remainder.
// Implementations must be wire-compatible with the reflect plan for the
// same struct: same field order, same primitive encodings, sorted map keys.
// DecodeFrom must not alias its input — decoded strings, byte slices, and
// the like are copies — so callers may recycle the input buffer the moment
// it returns. A generated DecodeFrom copies its input into one string up
// front and takes every string it decodes from that copy (DecStringOf);
// byte slices get copies of their own, so none shares bytes with a string.
type Message interface {
	AppendTo(b []byte) ([]byte, error)
	DecodeFrom(b []byte) (rest []byte, err error)
}

// skipper is the generated skip that Skip dispatches to: SkipFrom consumes
// one wire encoding of the receiver's type from the front of b and returns
// the rest, applying every check DecodeFrom applies and building nothing. It
// never reads its receiver, so Skip calls it on a nil pointer.
type skipper interface {
	SkipFrom(b []byte) (rest []byte, err error)
}

// appendFunc encodes an `any` holding one registered value type without
// reflection.
type appendFunc = func(b []byte, v any) ([]byte, error)

var (
	fastReg    sync.Map // reflect.Type (the value type T) -> appendFunc
	sliceSkips sync.Map // reflect.Type ([]T of a registered T) -> skipFunc
	fastMu     sync.Mutex
	fastTypes  []reflect.Type
)

// Register records T's generated marshaler so that Marshal of a plain T
// value (not just a *T) takes the fast path. appendVal encodes an `any`
// holding a T; generated wire_gen.go files pass one written for their type,
// which copies the T onto its stack and calls the pointer receiver there:
//
//	codec.Register[GetReq](func(b []byte, v any) ([]byte, error) {
//		m := v.(GetReq)
//		return m.AppendTo(b)
//	})
//
// Written in the type's own package, that costs no allocation — a generic
// body calling AppendTo through a type parameter could not prove the copy
// stays on the stack. A T with a generated SkipFrom also gives []T a
// skipper: the count, then T's skip per element. Registration is idempotent;
// generated files call it from init().
func Register[T any](appendVal appendFunc) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if sk, ok := any((*T)(nil)).(skipper); ok {
		sliceSkips.Store(reflect.TypeFor[[]T](), skipFunc(func(data []byte) ([]byte, error) {
			n, rest, err := decLen(data)
			for i := 0; i < n && err == nil; i++ {
				rest, err = sk.SkipFrom(rest)
			}
			return rest, err
		}))
	}
	if _, loaded := fastReg.Swap(t, appendVal); !loaded {
		fastMu.Lock()
		fastTypes = append(fastTypes, t)
		fastMu.Unlock()
	}
}

// fastAppend dispatches v through the fast path if possible, reporting
// whether it did.
func fastAppend(buf []byte, v any) ([]byte, bool, error) {
	if m, ok := v.(Message); ok {
		out, err := m.AppendTo(buf)
		return out, true, err
	}
	if ss, ok := v.([]string); ok {
		return AppendStrings(buf, ss), true, nil
	}
	if v != nil {
		if fn, ok := fastReg.Load(reflect.TypeOf(v)); ok {
			out, err := fn.(appendFunc)(buf, v)
			return out, true, err
		}
	}
	return buf, false, nil
}
