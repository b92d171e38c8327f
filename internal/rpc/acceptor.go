package rpc

import (
	"errors"
	"net"
	"sync"
)

// Acceptor is the accepting half of a server — rpc's or rest's: its
// listeners and the connections accepted on them, each served on a goroutine
// of its own and closed when that returns. The zero value is ready to use.
type Acceptor struct {
	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup // one per connection being served
}

var errServerClosed = errors.New("server closed")

// Serve accepts connections on l, each served by serve, until l or the
// acceptor is closed.
func (a *Acceptor) Serve(l net.Listener, serve func(net.Conn)) error {
	a.mu.Lock()
	if a.closed { // Shut never saw l: close it, or dials to it would block
		a.mu.Unlock()
		l.Close()
		return errServerClosed
	}
	a.listeners = append(a.listeners, l)
	a.mu.Unlock()
	for {
		nc, err := l.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			nc.Close()
			return nil
		}
		if a.conns == nil {
			a.conns = make(map[net.Conn]struct{})
		}
		a.conns[nc] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			serve(nc)
			nc.Close()
			a.mu.Lock()
			delete(a.conns, nc)
			a.mu.Unlock()
		}()
	}
}

// Shut stops accepting and closes every connection, and reports whether it
// was the first to. Wait then waits for the connections' serves to return.
func (a *Acceptor) Shut() bool {
	a.mu.Lock()
	first := !a.closed
	a.closed = true
	ls := a.listeners
	a.listeners = nil
	a.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	a.closeConns()
	return first
}

// closeConns closes every connection being served.
func (a *Acceptor) closeConns() {
	a.mu.Lock()
	conns := make([]net.Conn, 0, len(a.conns))
	for nc := range a.conns {
		conns = append(conns, nc)
	}
	a.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
}

// Wait waits for the serves of every connection accepted to return.
func (a *Acceptor) Wait() { a.wg.Wait() }
