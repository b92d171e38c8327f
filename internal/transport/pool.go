package transport

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Pooled buffers and call descriptors for the wire hot path. The RPC layer
// moves payload bytes through here so a steady request stream recirculates
// a small working set of buffers instead of allocating per call. The buffer
// pool is one sync.Pool per power-of-two size class from minBufCap to
// maxPooledBuf, so a caller that asks for a large buffer finds one that
// small callers did not take first. Each class caches per P, so tiers
// sharing a process never contend on it, and the collector, not a fixed
// entry count, bounds what it retains: an idle pool is emptied within two
// collections.
//
// Ownership rules (see DESIGN.md "wire speed"):
//
//   - AcquireBuf(n) hands out exclusive ownership of an empty buffer whose
//     capacity is at least n — every time, so no caller checks. Exactly
//     one ReleaseBuf (or none — dropping a buffer on the floor is safe, it
//     just falls back to the garbage collector) per acquired buffer; a
//     buffer that grew past its class is filed by its new capacity.
//   - ReleaseBuf must only be called once the contents are dead: after a
//     decode (the codec never aliases its input) or after the bytes were
//     copied to the wire.
//   - Never release a slice you do not own end-to-end; a sub-slice of
//     someone else's buffer poisons the pool. Release a buffer from its
//     head: one resliced from past it has lost capacity and files a class
//     lower.

const (
	// maxPooledBuf bounds a recyclable buffer so one jumbo payload does not
	// pin megabytes in the pool; a larger hint gets an exact, unpooled buffer.
	maxPooledBuf = 64 << 10
	// minBufCap is the smallest capacity AcquireBuf mints, so tiny first
	// requests do not seed the pool with useless slivers.
	minBufCap = 512
)

// classes[i] holds buffers of capacity minBufCap<<i up to, not including,
// twice that: eight classes, 512 B to 64 KiB. A sync.Pool stores interface
// values, and putting a slice header into one allocates, so a class keeps
// only the pointer to a buffer's first byte, which fits an interface as it
// is; AcquireBuf rebuilds the slice at the class size, which the buffer's
// own capacity is at least.
var classes [8]sync.Pool

// AcquireBuf returns an empty buffer with capacity at least hint: one from
// the smallest class that holds hint, or a new one of that class's size.
func AcquireBuf(hint int) []byte {
	if hint > maxPooledBuf {
		return make([]byte, 0, hint)
	}
	c := 0
	if hint > minBufCap {
		c = bits.Len(uint(hint-1)) - bits.Len(minBufCap-1)
	}
	if p, _ := classes[c].Get().(*byte); p != nil {
		return unsafe.Slice(p, minBufCap<<c)[:0]
	}
	return make([]byte, 0, minBufCap<<c)
}

// ReleaseBuf files b under the class its capacity rounds down to. nil,
// undersized and oversized buffers are dropped. The caller must not touch b
// afterwards.
func ReleaseBuf(b []byte) {
	if cap(b) < minBufCap || cap(b) > maxPooledBuf {
		return
	}
	classes[bits.Len(uint(cap(b)))-bits.Len(minBufCap)].Put(unsafe.SliceData(b))
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

// ReleaseCall recycles a call descriptor obtained from AcquireCall.
func ReleaseCall(c *Call) {
	c.Target, c.Method = "", ""
	c.Payload, c.Reply = nil, nil
	c.Body = nil
	c.Trace = SpanContext{}
	c.Addr = ""
	c.OneWay, c.Stream = false, false
	c.StreamBody = nil
	c.outrun.Store(false)
	callPool.Put(c)
}
