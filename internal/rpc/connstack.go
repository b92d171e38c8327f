package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/transport"
)

// ConnStack is the connections a client — rpc's or rest's — keeps to one
// address. A call checks one out, writes its request, reads its own reply on
// the calling goroutine and parks it again: one conversation per connection,
// so an edge holds as many as its peak concurrency. Parked connections sit in
// one LIFO list per P, each under its own lock on its own cache line; a call
// takes the one parked last on its own P, else on another, and dials only
// when every list is empty. So a caller reuses what is hot in its core's
// cache — buffers, rings, the peer's server goroutine — writes nothing
// another core's calls write, and the edge holds just what one shared stack
// would. S is the protocol's state on a connection.
type ConnStack[S any] struct {
	network             Network
	proto, target, addr string // proto prefixes errors: "rpc", "rest"
	newState            func(net.Conn) S

	idle   []idleList[S] // parked connections, one list per P
	closed atomic.Bool   // set by Close, before it empties the lists

	mu    sync.Mutex
	conns map[*Conn[S]]struct{} // every open one, parked or checked out: Close's list
}

// cacheLine is the span two cores contend for when either writes into it.
const cacheLine = 64

// idleList is one P's parked connections, last in, first out. A full cache
// line of padding follows its lock and slice header, so wherever the
// allocator places the array, no line holds what two Ps' calls write.
type idleList[S any] struct {
	mu    sync.Mutex
	conns []*Conn[S]
	_     [cacheLine]byte
}

// pop takes the connection parked last, or nil. The caller holds l.mu.
func (l *idleList[S]) pop() *Conn[S] {
	n := len(l.conns)
	if n == 0 {
		return nil
	}
	cn := l.conns[n-1]
	l.conns[n-1], l.conns = nil, l.conns[:n-1]
	return cn
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
		idle: make([]idleList[S], runtime.GOMAXPROCS(0)), conns: make(map[*Conn[S]]struct{})}
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
// the next non-empty one, or dials outside every lock: a slow dial must not
// hold up callers that have one waiting.
func (s *ConnStack[S]) checkOut(p int) (cn *Conn[S], dialed bool, err error) {
	if s.closed.Load() {
		return nil, false, errClientClosed
	}
	l := &s.idle[p%len(s.idle)]
	l.mu.Lock()
	cn = l.pop()
	l.mu.Unlock()
	if cn == nil {
		cn = s.steal(p)
	}
	if cn != nil {
		return cn, false, nil
	}

	nc, err := s.network.Dial(s.addr)
	if err != nil {
		return nil, false, fmt.Errorf("%s: dial %s (%s): %w", s.proto, s.target, s.addr, err)
	}
	cn = &Conn[S]{NC: nc, State: s.newState(nc), interrupt: func() {
		_ = nc.SetReadDeadline(time.Unix(1, 0)) // on a closed conn the read has failed already
	}}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		nc.Close()
		return nil, false, errClientClosed
	}
	s.conns[cn] = struct{}{}
	return cn, true, nil
}

// steal pops the connection parked last on the first non-empty list from P
// p's on, or returns nil. It holds every list's lock at once, so no
// connection can be parked on a list it has passed: it finds none only when
// every open connection is checked out, and the edge dials no more than its
// peak concurrency.
func (s *ConnStack[S]) steal(p int) *Conn[S] {
	s.lockAll()
	defer s.unlockAll()
	for i := range len(s.idle) {
		if cn := s.idle[(p+i)%len(s.idle)].pop(); cn != nil {
			return cn
		}
	}
	return nil
}

// lockAll takes every list's lock, in index order; unlockAll releases them.
func (s *ConnStack[S]) lockAll() {
	for i := range s.idle {
		s.idle[i].mu.Lock()
	}
}

func (s *ConnStack[S]) unlockAll() {
	for i := range s.idle {
		s.idle[i].mu.Unlock()
	}
}

// park returns a healthy connection to P p's idle list.
func (s *ConnStack[S]) park(p int, cn *Conn[S]) {
	l := &s.idle[p%len(s.idle)]
	l.mu.Lock()
	if !s.closed.Load() { // else Close has closed it already
		l.conns = append(l.conns, cn)
	}
	l.mu.Unlock()
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
	var idle []*Conn[S]
	s.lockAll()
	for i := range s.idle {
		l := &s.idle[i]
		idle, l.conns = append(idle, l.conns...), nil
	}
	s.unlockAll()
	s.mu.Lock()
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
	s.closed.Store(true)
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.closeIdle() // no list takes a connection now, and each one is among conns
	for cn := range conns {
		cn.NC.Close()
	}
}
