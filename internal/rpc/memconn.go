package rpc

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"dsb/internal/transport"
)

// memConnCapacity bounds the unread bytes one direction of a Mem connection
// holds — a socket buffer, sized like Linux's default (net.core.wmem_default,
// 208 KiB, rounded up to a power of two). Below it a Write is a copy plus one
// wake-up; at it a Write parks until the reader drains, so a stalled peer
// still pushes back on its writers.
const memConnCapacity = 256 << 10

// memPipe is one direction of a memConn: a ring of unread bytes between a
// writing end and a reading end. A ring exists only while bytes are unread:
// it is borrowed from transport's pool at 2 KiB or, doubling, up to
// memConnCapacity as unread bytes demand, and goes back to the pool once
// drained, so a connection holds a burst's bytes while they are in flight,
// not after. A Write that finds a Read already parked skips the ring for that
// Read's buffer, so a frame is not copied twice on its way to a waiting peer.
type memPipe struct {
	mu       sync.Mutex
	changed  sync.Cond // broadcast on every change below; parked calls re-check
	buf      []byte    // ring, while bytes are unread; len is a power of two
	r, n     int       // read index, unread bytes
	rbuf     []byte    // the buffer of a Read parked on an empty ring, until a
	rgot     int       // Write fills it: then rbuf is nil and rgot the byte count
	writing  bool      // a Write is parked mid-payload and owns the pipe until done
	wclosed  bool      // writing end closed: reads drain the ring, then io.EOF
	rclosed  bool      // reading end closed: unread bytes are gone, writes fail
	rdl, wdl memDeadline
}

// memDeadline is one end's deadline, guarded by the pipe's mutex. gen tells
// a timer that fires while it is being replaced that it is stale.
type memDeadline struct {
	timer   *time.Timer
	gen     int
	expired bool
}

// setDeadline arms d, one of p.rdl and p.wdl: a zero t clears it, a past t
// expires it at once, and calls already parked on p re-check either way.
func (p *memPipe) setDeadline(d *memDeadline, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
	}
	d.gen++
	gen := d.gen
	d.timer, d.expired = nil, !t.IsZero() && !t.After(time.Now())
	if !t.IsZero() && !d.expired {
		d.timer = time.AfterFunc(time.Until(t), func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			if d.gen == gen {
				d.expired = true
				p.changed.Broadcast()
			}
		})
	}
	p.changed.Broadcast()
}

func (p *memPipe) read(b []byte) (n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	offered := false
	for len(b) > 0 && n == 0 && err == nil {
		switch {
		case offered && p.rgot > 0:
			n, p.rgot, offered = p.rgot, 0, false
		case p.rclosed:
			err = io.ErrClosedPipe
		case p.rdl.expired:
			err = os.ErrDeadlineExceeded
		case p.n > 0:
			n = copy(b, p.buf[p.r:min(p.r+p.n, len(p.buf))])
			if n < len(b) && n < p.n { // the unread bytes wrap
				n += copy(b[n:], p.buf[:p.n-n])
			}
			p.n -= n
			p.r = (p.r + n) & (len(p.buf) - 1)
			if p.n == 0 {
				transport.ReleaseBuf(p.buf)
				p.buf, p.r = nil, 0
			}
			p.changed.Broadcast()
		case p.wclosed:
			err = io.EOF
		default:
			if p.rbuf == nil && p.rgot == 0 {
				p.rbuf, offered = b, true
			}
			p.changed.Wait()
		}
	}
	if offered {
		p.rbuf = nil
	}
	return n, err
}

// write copies all of b to the reader, parking while memConnCapacity bytes
// are unread. A Write that parks owns the pipe until it returns, so
// concurrent writers' payloads never interleave.
func (p *memPipe) write(b []byte) (n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner := false
	for len(b) > 0 && err == nil {
		var c int
		switch {
		case p.wclosed || p.rclosed:
			err = io.ErrClosedPipe
		case p.wdl.expired:
			err = os.ErrDeadlineExceeded
		case p.writing && !owner:
			p.changed.Wait()
		case p.n == memConnCapacity:
			p.writing, owner = true, true
			p.changed.Wait()
		case p.n == 0 && p.rbuf != nil:
			c = copy(p.rbuf, b)
			p.rbuf, p.rgot = nil, c
		default:
			c = min(len(b), memConnCapacity-p.n)
			if p.n+c > len(p.buf) {
				p.grow(p.n + c)
			}
			w := (p.r + p.n) & (len(p.buf) - 1)
			if k := copy(p.buf[w:], b[:c]); k < c {
				copy(p.buf, b[k:c])
			}
			p.n += c
		}
		if c > 0 {
			n += c
			b = b[c:]
			p.changed.Broadcast()
		}
	}
	if owner {
		p.writing = false
		p.changed.Broadcast()
	}
	return n, err
}

// grow moves the unread bytes to the start of a borrowed ring of at least
// need bytes, and returns the one they were in.
func (p *memPipe) grow(need int) {
	size := 2 << 10
	for size < need {
		size *= 2
	}
	buf := transport.AcquireBuf(size)[:size]
	k := copy(buf, p.buf[p.r:min(p.r+p.n, len(p.buf))])
	copy(buf[k:p.n], p.buf)
	transport.ReleaseBuf(p.buf)
	p.buf, p.r = buf, 0
}

// memConn is one end of a Mem connection: a buffered duplex byte stream
// that closes like TCP — bytes written before Close stay readable by the
// peer, then io.EOF; writing to a closed peer fails. Both ends report the
// listener's address: a dialer has none of its own on a Mem network.
type memConn struct {
	in, out *memPipe
	addr    memAddr
}

// newMemConnPair returns the two ends of a connection to the listener at addr.
func newMemConnPair(addr memAddr) (client, server net.Conn) {
	up, down := new(memPipe), new(memPipe)
	up.changed.L, down.changed.L = &up.mu, &down.mu
	return &memConn{in: down, out: up, addr: addr}, &memConn{in: up, out: down, addr: addr}
}

func (c *memConn) Read(b []byte) (int, error)  { return c.in.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.out.write(b) }
func (c *memConn) LocalAddr() net.Addr         { return c.addr }
func (c *memConn) RemoteAddr() net.Addr        { return c.addr }

func (c *memConn) Close() error {
	c.out.closeEnd(&c.out.wclosed)
	c.in.closeEnd(&c.in.rclosed)
	return nil
}

func (p *memPipe) closeEnd(closed *bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	*closed = true
	p.changed.Broadcast()
}

func (c *memConn) SetDeadline(t time.Time) error {
	c.in.setDeadline(&c.in.rdl, t)
	c.out.setDeadline(&c.out.wdl, t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(&c.in.rdl, t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.out.setDeadline(&c.out.wdl, t)
	return nil
}
