package mq

import (
	"context"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// TestDLQPeekAndRedrive walks the operator loop for a poison message over
// the wire: it dead-letters after exhausting attempts, PeekDLQ shows it
// without consuming, Redrive drains it back to the origin queue with a
// reset attempt budget, and — once "fixed" — it is delivered and settles.
func TestDLQPeekAndRedrive(t *testing.T) {
	vtime.Run(t, func() {
		b, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{MaxAttempts: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.PublishKey(ctx, "t", "poison", []byte("bad")); err != nil {
			t.Fatal(err)
		}
		for attempt := 1; attempt <= 2; attempt++ {
			msg, err := bus.Consume(ctx, "t", "g", time.Minute, time.Second)
			if err != nil || !msg.OK || msg.Attempts != attempt {
				t.Fatalf("attempt %d consume = %+v, %v", attempt, msg, err)
			}
			if err := bus.Nack(ctx, "t", "g", msg); err != nil {
				t.Fatal(err)
			}
		}

		// Dead-lettered: gone from the group queue, visible via PeekDLQ with its
		// key intact, and Peek does not consume (two peeks agree).
		if msg, err := bus.Consume(ctx, "t", "g", time.Minute, 30*time.Millisecond); err != nil || msg.OK {
			t.Fatalf("consume after dead-letter = %+v, %v", msg, err)
		}
		for i := 0; i < 2; i++ {
			dead, err := bus.PeekDLQ(ctx, "t", "g", 10)
			if err != nil || len(dead) != 1 {
				t.Fatalf("PeekDLQ #%d = %+v, %v", i, dead, err)
			}
			if dead[0].Key != "poison" || string(dead[0].Body) != "bad" {
				t.Fatalf("DLQ contents = %+v", dead[0])
			}
		}

		// Redrive: back to the origin with attempts reset, deliverable again.
		n, err := bus.Redrive(ctx, "t", "g")
		if err != nil || n != 1 {
			t.Fatalf("Redrive = %d, %v", n, err)
		}
		if dead, err := bus.PeekDLQ(ctx, "t", "g", 10); err != nil || len(dead) != 0 {
			t.Fatalf("DLQ after redrive = %+v, %v", dead, err)
		}
		msg, err := bus.Consume(ctx, "t", "g", time.Minute, time.Second)
		if err != nil || !msg.OK || msg.Attempts != 1 || msg.Key != "poison" {
			t.Fatalf("redriven consume = %+v, %v", msg, err)
		}
		if err := bus.Ack(ctx, "t", "g", msg); err != nil {
			t.Fatal(err)
		}
		vtime.Wait() // Ack is one-way (fire-and-forget): let the settle land
		if got := b.Queue("t@g").Len() + b.Queue("t@g").InFlight(); got != 0 {
			t.Fatalf("residual backlog = %d after ack settled", got)
		}
	})
}

// TestRedriveEmptyDLQ pins the no-op path: redriving a group with nothing
// dead-lettered reports zero without erroring.
func TestRedriveEmptyDLQ(t *testing.T) {
	_, bus, stop := bootBrokerService(t)
	defer stop()
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	if n, err := bus.Redrive(ctx, "t", "g"); err != nil || n != 0 {
		t.Fatalf("Redrive = %d, %v", n, err)
	}
}

// TestBrokerCloseWakesReceiveWait is the broker-level shutdown contract: a
// waiter parked in ReceiveWait returns promptly when the broker closes,
// instead of burning the rest of its wait budget.
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
