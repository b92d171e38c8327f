package mq

import (
	"context"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

func TestBrokerCloseWakesReceiveWait(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		q := b.Queue("q")
		done := make(chan bool, 1)
		go func() {
			_, ok := q.ReceiveWait(time.Minute, 30*time.Second)
			done <- ok
		}()
		vtime.Wait() // the waiter is parked
		start := time.Now()
		b.Close()
		select {
		case ok := <-done:
			if ok {
				t.Fatal("closed queue delivered a message")
			}
			if elapsed := time.Since(start); elapsed != 0 {
				t.Fatalf("ReceiveWait took %v to notice Close", elapsed)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ReceiveWait still parked after Close; waiter leaked")
		}
	})
}

// TestServerCloseWakesParkedConsume is the wire-level regression: closing
// the broker's server while a Consume long-poll is parked must (a) return
// the server's Close promptly — the parked handler goroutine is woken, not
// leaked — and (b) fail the in-flight client call instead of leaving it to
// the full wait budget. A fresh Consume against the closed broker gets the
// coded Unavailable error consumers key their failover on.
func TestServerCloseWakesParkedConsume(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		srv := rpc.NewServer("broker")
		RegisterService(srv, b)
		n := rpc.NewMem()
		addr, err := srv.Start(n, "broker:0")
		if err != nil {
			t.Fatal(err)
		}
		c := rpc.NewClient(n, "broker", addr)
		defer c.Close()
		bus := Client{C: c}
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}

		consumeDone := make(chan error, 1)
		go func() {
			_, err := bus.Consume(ctx, "t", "g", time.Minute, 30*time.Second)
			consumeDone <- err
		}()
		vtime.Wait() // the long poll is parked server-side

		closeDone := make(chan struct{})
		start := time.Now()
		go func() { srv.Close(); close(closeDone) }()
		select {
		case <-closeDone:
			if elapsed := time.Since(start); elapsed != 0 {
				t.Fatalf("server Close took %v with a parked consume", elapsed)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server Close hung on the parked consume handler")
		}
		select {
		case err := <-consumeDone:
			if err == nil {
				t.Fatal("parked consume returned success from a closed broker")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("parked consume never returned after server Close")
		}

		// The closed queue now answers with a coded error, not an empty poll:
		// that is what lets a partitioned consumer fail over instead of
		// spinning its wait budget against a corpse.
		c2 := rpc.NewClient(n, "broker", addr)
		defer c2.Close()
		_, err = Client{C: c2}.Consume(ctx, "t", "g", time.Minute, 50*time.Millisecond)
		if err == nil {
			t.Fatal("consume against closed broker succeeded")
		}
	})
}
