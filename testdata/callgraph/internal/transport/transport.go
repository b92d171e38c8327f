// Package transport is the caller interface every client satisfies.
package transport

import "context"

// Caller calls methods on one target tier.
type Caller interface {
	Call(ctx context.Context, method string, req, resp any) error
	Target() string
}

// Call is a call descriptor: wire bytes in, reply out.
type Call struct {
	Target, Method string
	Payload, Reply []byte
}

// AcquireCall returns a descriptor for method on target.
func AcquireCall(target, method string) *Call { return &Call{Target: target, Method: method} }
