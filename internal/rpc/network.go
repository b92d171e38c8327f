// Package rpc implements the suite's RPC framework — the role Apache Thrift
// and gRPC play in DeathStarBench. It provides a framed binary protocol over
// pooled persistent connections — one conversation at a time on each, as
// Thrift's synchronous clients have it: a call, a one-way frame or a stream
// — with deadline propagation, application error codes, and
// client/server interceptor chains used by the tracing and metrics layers.
//
// Two transports implement the Network interface: TCP (real sockets, used by
// the cmd/ tools and latency-sensitive benchmarks) and Mem (in-process
// buffered connections, used by tests, examples and the benchmark so an
// entire application boots in one process with no ports).
package rpc

import (
	"fmt"
	"net"
	"sync"
)

// Network abstracts the transport so the same client/server code runs over
// real sockets or in-memory connections.
type Network interface {
	// Listen creates a listener on addr. For TCP, addr may have port 0 to
	// pick a free port; the chosen address is available from the listener.
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener created by Listen.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-socket transport.
type TCP struct{}

// Listen implements Network.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Network.
func (TCP) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Mem is an in-process transport: listeners are registered in a name space
// held by the Mem value, and Dial hands the listener one end of a buffered
// duplex connection (memConn) — like a socket, a Write returns once its
// bytes are buffered, not once the peer has read them. A Mem value must be
// shared by all parties that want to talk to each other; distinct Mem values
// are isolated networks.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen implements Network.
func (m *Mem) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.listeners[addr]; exists {
		return nil, fmt.Errorf("mem: address %s already in use", addr)
	}
	l := &memListener{addr: addr, accept: make(chan net.Conn), closed: make(chan struct{}), net: m}
	m.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (m *Mem) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	}
	client, server := newMemConnPair(memAddr(addr))
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("mem: connection refused: %s", addr)
	}
}

func (m *Mem) remove(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.listeners, addr)
}

type memListener struct {
	addr      string
	accept    chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
	net       *Mem
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.remove(l.addr)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }
