package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dsb/internal/transport"
)

// ConnStack is the connections a client — rpc's or rest's — keeps to one
// address. A call checks one out, writes its request, reads its own reply on
// the calling goroutine and parks it again: one conversation per connection,
// so an edge holds as many as its peak concurrency. Parked connections sit in
// one LIFO list per P; a call takes the one parked last on its own P, else on
// another, and dials only when every list is empty. So a caller reuses what
// is hot in its core's cache — buffers, rings, the peer's server goroutine —
// and the edge holds just what one shared stack would. S is the protocol's
// state on a connection.
type ConnStack[S any] struct {
	network             Network
	proto, target, addr string // proto prefixes errors: "rpc", "rest"
	newState            func(net.Conn) S

	mu     sync.Mutex
	idle   [][]*Conn[S]          // parked connections, one list per P; last in, first out
	conns  map[*Conn[S]]struct{} // every open one, parked or checked out: Close's list
	closed bool
}

// Conn is one connection of a ConnStack, used by whoever checked it out.
type Conn[S any] struct {
	NC        net.Conn
	State     S
	interrupt func() // fails a parked read; built at the dial, so arming it costs a call nothing
}

// NewConnStack returns an empty stack of proto connections to the target
// service at addr; newState builds each connection's state.
func NewConnStack[S any](network Network, proto, target, addr string, newState func(net.Conn) S) *ConnStack[S] {
	return &ConnStack[S]{network: network, proto: proto, target: target, addr: addr, newState: newState,
		idle: make([][]*Conn[S], runtime.GOMAXPROCS(0)), conns: make(map[*Conn[S]]struct{})}
}

var errClientClosed = errors.New("client closed")

// Send checks a connection out, writes a request on it with write and returns
// it still checked out. A write that fails provably never delivered the
// request, so it costs the caller nothing: parked connections that died idle
// are discarded one after another, and a fresh dial dead on arrival is
// redialed once — below the retry middleware, free of its budget. An
// errEncode failure wrote nothing, so its connection is parked again.
func (s *ConnStack[S]) Send(write func(*Conn[S]) error) (*Conn[S], error) {
	for dials := 0; ; {
		cn, dialed, err := s.checkOut(procID())
		if err != nil {
			return nil, err
		}
		if dialed {
			dials++
		}
		if err = write(cn); err == nil {
			return cn, nil
		}
		if errors.Is(err, errEncode) {
			s.park(procID(), cn)
			return nil, err
		}
		s.drop(cn)
		if dials >= 2 {
			return nil, fmt.Errorf("%s: send to %s: %w", s.proto, s.target, err)
		}
	}
}

// Await reads the reply to what Send wrote on cn with read, then parks cn or
// closes it. read reports whether cn can carry another conversation and how
// the exchange failed: a coded error is the peer's answer, returned as it is;
// any other, a failed connection. A context that can end interrupts read.
func (s *ConnStack[S]) Await(ctx context.Context, cn *Conn[S], method string, read func(*Conn[S]) (reuse bool, err error)) error {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cn.interrupt)
	}
	reuse, err := read(cn)
	// A connection whose read failed may still be sent the reply, and one
	// that was interrupted — even too late to matter to this call — carries
	// a spent deadline: either is closed, never parked, so no later call can
	// meet what this one left behind.
	if reuse && (stop == nil || stop()) {
		s.park(procID(), cn)
	} else {
		s.drop(cn)
	}
	if err == nil || answered(err) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return transport.WrapCode(CodeDeadline, cerr, "%s: call %s %s: %v", s.proto, s.target, method, cerr)
	}
	// The request was delivered, so resending it here could run it twice:
	// fail with a coded retryable error and let the retry middleware decide.
	// A peer that dropped this connection has likely dropped them all.
	s.closeIdle()
	return transport.Errorf(CodeUnavailable, "%s: connection to %s lost with %s in flight", s.proto, s.target, method)
}

// answered reports whether err is a peer's coded answer.
func answered(err error) bool {
	var e *Error
	return errors.As(err, &e)
}

// checkOut pops the connection parked last on P p's list (p wraps), else on
// the next non-empty one, or dials outside the lock: a slow dial must not
// hold up callers that have one waiting.
func (s *ConnStack[S]) checkOut(p int) (cn *Conn[S], dialed bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errClientClosed
	}
	for i := range len(s.idle) {
		l := &s.idle[(p+i)%len(s.idle)]
		if n := len(*l); n > 0 {
			cn, (*l)[n-1] = (*l)[n-1], nil
			*l = (*l)[:n-1]
			s.mu.Unlock()
			return cn, false, nil
		}
	}
	s.mu.Unlock()

	nc, err := s.network.Dial(s.addr)
	if err != nil {
		return nil, false, fmt.Errorf("%s: dial %s (%s): %w", s.proto, s.target, s.addr, err)
	}
	cn = &Conn[S]{NC: nc, State: s.newState(nc), interrupt: func() {
		_ = nc.SetReadDeadline(time.Unix(1, 0)) // on a closed conn the read has failed already
	}}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		nc.Close()
		return nil, false, errClientClosed
	}
	s.conns[cn] = struct{}{}
	return cn, true, nil
}

// park returns a healthy connection to P p's idle list.
func (s *ConnStack[S]) park(p int, cn *Conn[S]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed { // else Close has closed it already
		l := &s.idle[p%len(s.idle)]
		*l = append(*l, cn)
	}
}

// drop closes a checked-out connection for good.
func (s *ConnStack[S]) drop(cn *Conn[S]) {
	cn.NC.Close()
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
}

// closeIdle closes every parked connection, on every P's list.
func (s *ConnStack[S]) closeIdle() {
	s.mu.Lock()
	var idle []*Conn[S]
	for p := range s.idle {
		idle, s.idle[p] = append(idle, s.idle[p]...), nil
	}
	for _, cn := range idle {
		delete(s.conns, cn)
	}
	s.mu.Unlock()
	for _, cn := range idle {
		cn.NC.Close()
	}
}

// Close closes every connection: calls in flight fail at their read, open
// streams end when their readers do.
func (s *ConnStack[S]) Close() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns, s.idle = nil, nil
	s.mu.Unlock()
	for cn := range conns {
		cn.NC.Close()
	}
}
