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
// it returns.
type Message interface {
	AppendTo(b []byte) ([]byte, error)
	DecodeFrom(b []byte) (rest []byte, err error)
}

// fastFuncs is the registry entry for one value type T: a closure that
// encodes an `any` holding a T without reflection.
type fastFuncs struct {
	appendVal func(buf []byte, v any) ([]byte, error)
}

var (
	fastReg   sync.Map // reflect.Type (the value type T) -> *fastFuncs
	fastMu    sync.Mutex
	fastTypes []reflect.Type
)

// Register records T's generated marshaler so that Marshal of a plain T
// value (not just a *T) takes the fast path. The PT constraint pins *T to
// implement Message, which lets the type argument be inferred:
//
//	codec.Register[GetReq]()
//
// Registration is idempotent; generated wire_gen.go files call it from
// init().
func Register[T any, PT interface {
	Message
	*T
}]() {
	t := reflect.TypeOf((*T)(nil)).Elem()
	fns := &fastFuncs{
		appendVal: func(buf []byte, v any) ([]byte, error) {
			// The type assertion copies T onto the stack; PT(&x) is the
			// pointer receiver the generated marshaler wants. No reflection,
			// and no allocation unless the marshaler itself allocates.
			x := v.(T)
			return PT(&x).AppendTo(buf)
		},
	}
	if _, loaded := fastReg.Swap(t, fns); !loaded {
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
	if v != nil {
		if fns, ok := fastReg.Load(reflect.TypeOf(v)); ok {
			out, err := fns.(*fastFuncs).appendVal(buf, v)
			return out, true, err
		}
	}
	return buf, false, nil
}
