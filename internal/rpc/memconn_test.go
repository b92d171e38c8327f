package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/vtime"
)

const memTestAddr = "svc:7"

// memPair dials one connection through a Mem network and returns both ends.
func memPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	n := NewMem()
	l, err := n.Listen(memTestAddr)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	if client, err = n.Dial(memTestAddr); err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close(); l.Close() })
	return client, server
}

// parked runs call on its own goroutine, waits until it has blocked, and
// returns the channel its error arrives on: what follows wakes a call that
// really is parked.
func parked(t *testing.T, call func() error) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	vtime.Wait()
	select {
	case err := <-done:
		t.Fatalf("call returned %v, want it to block", err)
	default:
	}
	return done
}

func wantErr(t *testing.T, done <-chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("call still blocked, want %v", want)
	}
}

// fill writes exactly memConnCapacity bytes, which nobody reads, so the
// next Write on c must park.
func fill(t *testing.T, c net.Conn) {
	t.Helper()
	if n, err := c.Write(make([]byte, memConnCapacity)); n != memConnCapacity || err != nil {
		t.Fatalf("filling the buffer: n=%d err=%v", n, err)
	}
}

func readByte(c net.Conn) func() error {
	return func() error { _, err := c.Read(make([]byte, 1)); return err }
}

func writeByte(c net.Conn) func() error {
	return func() error { _, err := c.Write([]byte{1}); return err }
}

// TestMemConnContract pins what connWriter, frameReader, fault.faultConn and
// net/http rely on a net.Conn for, on the connection rpc.Mem hands out.
func TestMemConnContract(t *testing.T) {
	vtime.Run(t, func() {
		soon := func() time.Time { return time.Now().Add(20 * time.Millisecond) }
		past := time.Unix(1, 0)
		for _, tc := range []struct {
			name string
			run  func(t *testing.T, client, server net.Conn)
		}{
			{"bytes written before Close are read, then EOF", func(t *testing.T, client, server net.Conn) {
				if _, err := client.Write([]byte("hello")); err != nil {
					t.Fatal(err)
				}
				client.Close()
				got, err := io.ReadAll(server)
				if string(got) != "hello" || err != nil {
					t.Fatalf("ReadAll = %q, %v", got, err)
				}
			}},
			{"a Write fills a parked Read's buffer and buffers the rest", func(t *testing.T, client, server net.Conn) {
				head := make([]byte, 2)
				done := parked(t, func() error { _, err := io.ReadFull(server, head); return err })
				if _, err := client.Write([]byte("hello")); err != nil {
					t.Fatal(err)
				}
				wantErr(t, done, nil)
				client.Close()
				tail, err := io.ReadAll(server)
				if got := string(head) + string(tail); got != "hello" || err != nil {
					t.Fatalf("read %q, %v", got, err)
				}
			}},
			{"Write after peer close errors", func(t *testing.T, client, server net.Conn) {
				server.Close()
				if _, err := client.Write([]byte("x")); err == nil {
					t.Fatal("Write to a closed peer succeeded")
				}
			}},
			{"Read and Write after own Close error", func(t *testing.T, client, server net.Conn) {
				if _, err := server.Write([]byte("unread")); err != nil {
					t.Fatal(err)
				}
				client.Close()
				if err := readByte(client)(); err == nil || err == io.EOF {
					t.Fatalf("Read on a closed conn = %v", err)
				}
				if err := writeByte(client)(); err == nil {
					t.Fatal("Write on a closed conn succeeded")
				}
			}},
			{"blocked Read wakes on peer Close", func(t *testing.T, client, server net.Conn) {
				done := parked(t, readByte(client))
				server.Close()
				wantErr(t, done, io.EOF)
			}},
			{"blocked Read wakes on own Close", func(t *testing.T, client, server net.Conn) {
				done := parked(t, readByte(client))
				client.Close()
				wantErr(t, done, io.ErrClosedPipe)
			}},
			{"Write blocked at capacity wakes on peer Close", func(t *testing.T, client, server net.Conn) {
				fill(t, client)
				done := parked(t, writeByte(client))
				server.Close()
				wantErr(t, done, io.ErrClosedPipe)
			}},
			{"Write blocked at capacity wakes on own Close", func(t *testing.T, client, server net.Conn) {
				fill(t, client)
				done := parked(t, writeByte(client))
				client.Close()
				wantErr(t, done, io.ErrClosedPipe)
			}},
			{"blocked Read wakes on a deadline set later", func(t *testing.T, client, server net.Conn) {
				done := parked(t, readByte(client))
				client.SetReadDeadline(soon()) //nolint:errcheck
				wantErr(t, done, os.ErrDeadlineExceeded)
			}},
			{"blocked Write wakes on a deadline set later", func(t *testing.T, client, server net.Conn) {
				fill(t, client)
				done := parked(t, writeByte(client))
				client.SetDeadline(soon()) //nolint:errcheck
				wantErr(t, done, os.ErrDeadlineExceeded)
			}},
			{"Write queued behind a blocked Write wakes on the deadline too", func(t *testing.T, client, server net.Conn) {
				fill(t, client)
				first := parked(t, writeByte(client))
				second := parked(t, writeByte(client))
				client.SetWriteDeadline(soon()) //nolint:errcheck
				wantErr(t, first, os.ErrDeadlineExceeded)
				wantErr(t, second, os.ErrDeadlineExceeded)
			}},
			{"past deadline fails at once, zero deadline clears", func(t *testing.T, client, server net.Conn) {
				if _, err := server.Write([]byte("x")); err != nil {
					t.Fatal(err)
				}
				client.SetDeadline(past) //nolint:errcheck
				if err := readByte(client)(); !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("Read under a past deadline = %v", err)
				}
				if err := writeByte(client)(); !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("Write under a past deadline = %v", err)
				}
				var ne net.Error
				if err := readByte(client)(); !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("deadline error %v is not a net.Error timeout", err)
				}
				client.SetDeadline(time.Time{}) //nolint:errcheck
				if err := readByte(client)(); err != nil {
					t.Fatalf("Read after clearing the deadline = %v", err)
				}
				if err := writeByte(client)(); err != nil {
					t.Fatalf("Write after clearing the deadline = %v", err)
				}
			}},
			{"a replaced deadline does not fire", func(t *testing.T, client, server net.Conn) {
				client.SetReadDeadline(soon())      //nolint:errcheck
				client.SetReadDeadline(time.Time{}) //nolint:errcheck
				done := parked(t, readByte(client))
				vtime.Advance(30 * time.Millisecond) // past the deadline that was replaced
				if _, err := server.Write([]byte("x")); err != nil {
					t.Fatal(err)
				}
				wantErr(t, done, nil)
			}},
			{"a Write larger than the capacity completes against a slow reader", func(t *testing.T, client, server net.Conn) {
				payload := make([]byte, 3*memConnCapacity+17)
				for i := range payload {
					payload[i] = byte(i * 7)
				}
				done := make(chan error, 1)
				go func() {
					n, err := client.Write(payload)
					if err == nil && n != len(payload) {
						err = fmt.Errorf("short write: %d of %d", n, len(payload))
					}
					client.Close()
					done <- err
				}()
				var got bytes.Buffer
				chunk := make([]byte, 5000) // not a divisor of the ring: reads wrap
				for {
					n, err := server.Read(chunk)
					got.Write(chunk[:n])
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if got.Len()%(64<<10) < len(chunk) {
						vtime.Advance(time.Millisecond)
					}
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), payload) {
					t.Fatalf("read %d bytes that differ from the %d written", got.Len(), len(payload))
				}
			}},
			{"concurrent writers' payloads never interleave", func(t *testing.T, client, server net.Conn) {
				// Two payloads do not fit the buffer together, so writers park
				// mid-payload and would interleave without Write's ownership.
				const size, each, writers = memConnCapacity*3/4 + 1, 8, 2
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(id byte) {
						defer wg.Done()
						payload := bytes.Repeat([]byte{id}, size)
						for i := 0; i < each; i++ {
							if _, err := client.Write(payload); err != nil {
								t.Error(err)
								return
							}
						}
					}(byte('a' + w))
				}
				block := make([]byte, size)
				for i := 0; i < writers*each; i++ {
					if _, err := io.ReadFull(server, block); err != nil {
						t.Fatal(err)
					}
					if n := bytes.Count(block, block[:1]); n != size {
						t.Fatalf("payload %d mixes writers: %d of %d bytes are %q", i, n, size, block[0])
					}
				}
				wg.Wait()
			}},
			{"both ends report the listener's mem address", func(t *testing.T, client, server net.Conn) {
				for _, a := range []net.Addr{client.LocalAddr(), client.RemoteAddr(), server.LocalAddr(), server.RemoteAddr()} {
					if a.Network() != "mem" || a.String() != memTestAddr {
						t.Fatalf("addr = %s/%s, want mem/%s", a.Network(), a, memTestAddr)
					}
				}
			}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				client, server := memPair(t)
				tc.run(t, client, server)
			})
		}
	})
}

// echoLoop echoes size-byte messages arriving at server until it closes.
func echoLoop(server net.Conn, size int) {
	buf := make([]byte, size)
	for {
		if _, err := io.ReadFull(server, buf); err != nil {
			return
		}
		if _, err := server.Write(buf); err != nil {
			return
		}
	}
}

// roundTrip returns one size-byte write and size-byte read on client, with
// its own message buffer.
func roundTrip(t testing.TB, client net.Conn, size int) func() {
	msg := make([]byte, size)
	return func() { // t.Error, not Fatal: the benchmark calls this off its own goroutine
		if _, err := client.Write(msg); err != nil {
			t.Error(err)
		}
		if _, err := io.ReadFull(client, msg); err != nil {
			t.Error(err)
		}
	}
}

// TestMemConnAllocGuard pins a steady-state round trip over the connection
// itself at zero allocations once its buffers have grown.
func TestMemConnAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget pinned by the non-race run in make alloc-guard")
	}
	for _, size := range []int{64, 4 << 10} {
		client, server := memPair(t)
		go echoLoop(server, size)
		trip := roundTrip(t, client, size)
		for i := 0; i < 100; i++ {
			trip()
		}
		restore := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(200, trip)
		debug.SetGCPercent(restore)
		if got != 0 {
			t.Fatalf("%d B ping-pong allocates %v objects per round trip, want 0", size, got)
		}
	}
}

// BenchmarkMemConn is the connection's own rung: size-byte round trips
// against an echo loop, from 1 and from 8 goroutines sharing the connection.
func BenchmarkMemConn(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		for _, writers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%dB/%dw", size, writers), func(b *testing.B) {
				client, server := memPair(b)
				go echoLoop(server, size)
				// Replies carry no identity: a writer reads back size bytes
				// of whoever's echo. Every size divides memConnCapacity, so
				// no Write is split and no reader is left holding a part.
				trips := make([]func(), writers)
				for i := range trips {
					trips[i] = roundTrip(b, client, size)
				}
				b.SetBytes(int64(2 * size))
				b.ReportAllocs()
				b.ResetTimer()
				var left atomic.Int64 // round trips not yet claimed by a writer
				left.Store(int64(b.N))
				var wg sync.WaitGroup
				for _, trip := range trips {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for left.Add(-1) >= 0 {
							trip()
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
