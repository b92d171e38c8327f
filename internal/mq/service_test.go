package mq

import (
	"context"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// bootBrokerService serves a broker over an in-memory network and returns it
// for white-box assertions, a typed client wired through the real RPC stack,
// and stop, which closes client and server.
func bootBrokerService(t *testing.T) (b *Broker, bus Client, stop func()) {
	t.Helper()
	b = NewBroker()
	srv := rpc.NewServer("broker")
	RegisterService(srv, b)
	n := rpc.NewMem()
	addr, err := srv.Start(n, "broker:0")
	if err != nil {
		t.Fatalf("start broker: %v", err)
	}
	c := rpc.NewClient(n, "broker", addr)
	return b, Client{C: c}, func() { c.Close(); srv.Close() }
}

// TestBrokerServiceRoundTrip drives the full networked lifecycle:
// subscribe, publish (ack'd by the broker), long-poll consume and one-way
// ack — the exact sequence the application tiers run.
func TestBrokerServiceRoundTrip(t *testing.T) {
	vtime.Run(t, func() {
		b, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()

		if err := bus.Subscribe(ctx, "orders", "commit", QueueConfig{MaxAttempts: 4, MaxDepth: 64}); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		id, err := bus.Publish(ctx, "orders", []byte("order-1"))
		if err != nil || id == 0 {
			t.Fatalf("Publish = %d, %v", id, err)
		}
		msg, err := bus.Consume(ctx, "orders", "commit", time.Minute, 2*time.Second)
		if err != nil || !msg.OK {
			t.Fatalf("Consume = %+v, %v", msg, err)
		}
		if string(msg.Body) != "order-1" || msg.Attempts != 1 {
			t.Fatalf("consumed %+v", msg)
		}
		if err := bus.Ack(ctx, "orders", "commit", msg); err != nil {
			t.Fatalf("Ack: %v", err)
		}
		vtime.Wait() // Ack is one-way: let the settle land
		if s := b.Topic("orders").Subscribe("commit").Stats(); s.Acked != 1 || s.Lag() != 0 || s.Published != 1 {
			t.Fatalf("Stats after the ack landed = %+v", s)
		}
	})
}

// TestBrokerServiceConsumeWaits pins the long-poll contract over the wire:
// an empty consume parks for the wait budget and a concurrent publish wakes
// it with the message.
func TestBrokerServiceConsumeWaits(t *testing.T) {
	vtime.Run(t, func() {
		_, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		start := time.Now()
		msg, err := bus.Consume(ctx, "t", "g", time.Minute, 50*time.Millisecond)
		if err != nil || msg.OK {
			t.Fatalf("empty consume = %+v, %v", msg, err)
		}
		if took := time.Since(start); took != 50*time.Millisecond {
			t.Fatalf("empty consume took %v, want its whole 50ms long poll", took)
		}

		got := make(chan ConsumeResp, 1)
		go func() {
			if m, err := bus.Consume(ctx, "t", "g", time.Minute, 5*time.Second); err == nil && m.OK {
				got <- m
			}
		}()
		vtime.Wait() // the consume is parked server-side
		if _, err := bus.Publish(ctx, "t", []byte("wake")); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		select {
		case m := <-got:
			if string(m.Body) != "wake" {
				t.Fatalf("got %q", m.Body)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("parked networked consume never woke on publish")
		}
	})
}

// TestBrokerServiceNackRedelivers checks the networked settle path for the
// failure case, including the dead-letter diversion.
func TestBrokerServiceNackRedelivers(t *testing.T) {
	b, bus, stop := bootBrokerService(t)
	defer stop()
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{MaxAttempts: 2}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := bus.Publish(ctx, "t", []byte("flaky")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	m1, err := bus.Consume(ctx, "t", "g", time.Minute, time.Second)
	if err != nil || !m1.OK {
		t.Fatalf("first consume = %+v, %v", m1, err)
	}
	if err := bus.Nack(ctx, "t", "g", m1); err != nil {
		t.Fatalf("Nack: %v", err)
	}
	m2, err := bus.Consume(ctx, "t", "g", time.Minute, time.Second)
	if err != nil || !m2.OK || m2.Attempts != 2 {
		t.Fatalf("redelivery = %+v, %v", m2, err)
	}
	if err := bus.Nack(ctx, "t", "g", m2); err != nil {
		t.Fatalf("second Nack: %v", err)
	}
	// Attempts exhausted: the message is in the DLQ, not the group queue.
	m3, err := bus.Consume(ctx, "t", "g", time.Minute, 30*time.Millisecond)
	if err != nil || m3.OK {
		t.Fatalf("post-exhaustion consume = %+v, %v", m3, err)
	}
	if got := b.Queue("t@g" + DeadLetterSuffix).Len(); got != 1 {
		t.Fatalf("DLQ Len = %d, want 1", got)
	}
	if s := b.Topic("t").Subscribe("g").Stats(); s.DeadLettered != 1 || s.Redelivered != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}
