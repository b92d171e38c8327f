package transport

import "sync"

// Pooled buffers and call descriptors for the wire hot path. The RPC layer
// moves payload bytes through here so a steady request stream recirculates
// a small working set of buffers instead of allocating per call. The pool
// caches per P (sync.Pool), so tiers sharing a process never contend on it,
// and the collector, not a fixed entry count, bounds what it retains: an
// idle pool is emptied within two collections.
//
// Ownership rules (see DESIGN.md "wire speed"):
//
//   - AcquireBuf hands out exclusive ownership; exactly one ReleaseBuf (or
//     none — dropping a buffer on the floor is safe, it just falls back to
//     the garbage collector) per acquired buffer.
//   - ReleaseBuf must only be called once the contents are dead: after a
//     decode (the codec never aliases its input) or after the bytes were
//     copied to the wire.
//   - Never release a slice you do not own end-to-end; a sub-slice of
//     someone else's buffer poisons the pool.

const (
	// maxPooledBuf bounds a recyclable buffer so one jumbo payload does not
	// pin megabytes in the pool.
	maxPooledBuf = 64 << 10
	// minBufCap is the smallest capacity AcquireBuf mints, so tiny first
	// requests do not seed the pool with useless slivers.
	minBufCap = 512
)

// A sync.Pool stores interface values, and putting a slice header into one
// allocates, so buffers travel in *[]byte boxes: bufPool holds boxes that
// carry a buffer, boxPool the empty ones AcquireBuf has unloaded.
var bufPool, boxPool sync.Pool

// AcquireBuf returns a zero-length buffer with at least hint spare capacity
// when freshly minted; a recycled buffer may be smaller (append will grow it
// once, after which the grown buffer recirculates).
func AcquireBuf(hint int) []byte {
	if box, _ := bufPool.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		boxPool.Put(box)
		return b
	}
	if hint < minBufCap {
		hint = minBufCap
	}
	if hint > maxPooledBuf {
		hint = maxPooledBuf
	}
	return make([]byte, 0, hint)
}

// ReleaseBuf returns a buffer to the pool. nil and oversized buffers are
// dropped. The caller must not touch b afterwards.
func ReleaseBuf(b []byte) {
	if b == nil || cap(b) > maxPooledBuf {
		return
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPool.Put(box)
}

var callPool = sync.Pool{New: func() any { return new(Call) }}

// AcquireCall returns a pooled call descriptor for one invocation. Release
// it with ReleaseCall once the invoke chain has returned AND any reply
// bytes have been detached — hedge stragglers only ever hold Clones, so the
// original is safe to release the moment the chain returns.
func AcquireCall(target, method string) *Call {
	c := callPool.Get().(*Call)
	c.Target, c.Method = target, method
	return c
}

// ReleaseCall recycles a call descriptor obtained from AcquireCall. The
// header map is retained (cleared) across uses so a deadline-stamping caller
// allocates it once per pooled descriptor, not once per call.
func ReleaseCall(c *Call) {
	c.Target, c.Method = "", ""
	c.Payload, c.Reply = nil, nil
	c.Body = nil
	c.Addr = ""
	c.OneWay, c.Stream = false, false
	c.StreamBody = nil
	clear(c.Headers)
	c.outrun.Store(false)
	callPool.Put(c)
}
