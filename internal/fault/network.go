package fault

import (
	"net"
	"strings"
	"sync"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// ServiceOf derives the service name from an instance address. The
// in-memory transport names instances "service:N", so stripping the final
// ":N" recovers the service; for TCP addresses this yields the host, which
// only wildcard rules will match — network-level faults are a feature of
// the in-process topology the experiments run on.
func ServiceOf(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Network wraps an rpc.Network with connection-level fault injection. An
// unbound Network (as handed to core.NewApp) dials with an unknown local
// identity; Bind stamps the dialing service's name so directional rules
// (resets, stalls, asymmetric partitions) can tell A→B from B→A. Listeners
// are wrapped too: accepted connections carry the listening service as
// their local identity, so wildcard-peer rules can stall or drop a
// server's outbound bytes.
type Network struct {
	inner rpc.Network
	inj   *Injector
	local string
}

// Wrap returns a fault-injecting view of inner driven by this injector.
func (inj *Injector) Wrap(inner rpc.Network) *Network {
	return &Network{inner: inner, inj: inj}
}

// Bind returns the same network with the local service identity set;
// core.App calls it with the caller's name when wiring clients.
func (n *Network) Bind(service string) rpc.Network {
	return &Network{inner: n.inner, inj: n.inj, local: service}
}

// CallMiddleware exposes the injector's client-side middleware for a given
// caller; core.App consults it so any app built on a fault.Network gets
// call-level faults without extra wiring.
func (n *Network) CallMiddleware(from string) transport.Middleware {
	return n.inj.Middleware(from)
}

// Injector returns the injector driving this network.
func (n *Network) Injector() *Injector { return n.inj }

// Unwrap returns the underlying transport, letting infrastructure that
// special-cases a concrete network type (address generation for rpc.Mem)
// see through the fault layer.
func (n *Network) Unwrap() rpc.Network { return n.inner }

// Dial implements rpc.Network. An active Reset rule for (local → target
// service) closes the connection right after establishment — the listener
// backlog accepted the handshake, the crashed process never will.
func (n *Network) Dial(addr string) (net.Conn, error) {
	remote := ServiceOf(addr)
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	if n.inj.resetActive(n.local, remote) {
		c.Close()
		return c, nil
	}
	return newFaultConn(c, n.inj, n.local, remote), nil
}

// Listen implements rpc.Network; accepted connections are wrapped with the
// listening service as local identity and an unknown peer.
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: l, inj: n.inj, local: ServiceOf(addr)}, nil
}

type faultListener struct {
	net.Listener
	inj   *Injector
	local string
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newFaultConn(c, l.inj, l.local, ""), nil
}

// faultConn applies byte-level rules per direction: writes travel
// local→remote, reads carry remote→local traffic. A partitioned write
// pretends success and discards its bytes — the dropped-packet model: the
// sender cannot tell, and nothing piles up in the connection's buffer to
// burst out when the partition heals — while a partitioned read simply
// stalls until the rule lifts or the conn closes, so late replies surface
// only after the partition heals.
type faultConn struct {
	net.Conn
	inj           *Injector
	local, remote string
	closed        chan struct{}
	once          sync.Once
}

func newFaultConn(c net.Conn, inj *Injector, local, remote string) *faultConn {
	return &faultConn{Conn: c, inj: inj, local: local, remote: remote, closed: make(chan struct{})}
}

func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// wait sleeps d unless the connection closes first.
func (c *faultConn) wait(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	if d := c.inj.stallFor(c.local, c.remote); d > 0 {
		if err := c.wait(d); err != nil {
			return 0, err
		}
	}
	if c.inj.partitioned(c.local, c.remote) {
		return len(p), nil // dropped on the floor, as the wire would
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Read(p []byte) (int, error) {
	if d := c.inj.stallFor(c.remote, c.local); d > 0 {
		if err := c.wait(d); err != nil {
			return 0, err
		}
	}
	for c.inj.partitioned(c.remote, c.local) {
		if err := c.wait(time.Millisecond); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}
