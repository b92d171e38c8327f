package mq

// Push-based delivery: standing broker streams replacing the consume poll
// loop, and the wait-budget regression the push work exposed in the
// partitioned poll path.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dsb/internal/vtime"
)

// TestPushDelivery drives the single-broker push path: messages published
// before and after the stream opens are all pushed, leases settle by Ack,
// and the queue drains without a single Consume poll.
func TestPushDelivery(t *testing.T) {
	vtime.Run(t, func() {
		b, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := bus.Publish(ctx, "t", []byte(fmt.Sprintf("pre%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		defer d.Close()
		got := map[string]bool{}
		for i := 0; i < 4; i++ {
			m, err := d.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			got[string(m.Body)] = true
			if err := bus.Ack(ctx, "t", "g", m); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if !got[fmt.Sprintf("pre%d", i)] {
				t.Fatalf("missing pre%d; got %v", i, got)
			}
		}
		// A publish against the standing stream is pushed without any new call.
		if _, err := bus.Publish(ctx, "t", []byte("live")); err != nil {
			t.Fatal(err)
		}
		m, err := d.Next()
		if err != nil || string(m.Body) != "live" {
			t.Fatalf("live delivery = %+v, %v", m, err)
		}
		if err := bus.Ack(ctx, "t", "g", m); err != nil {
			t.Fatal(err)
		}
		vtime.Wait()
		if s := b.Topic("t").Subscribe("g").Stats(); s.Queued != 0 || s.InFlight != 0 {
			t.Fatalf("queue not drained once everything is settled: %+v", s)
		}
	})
}

// TestPushNackRedelivers pins at-least-once under push: a nacked delivery
// comes back on the same standing stream.
func TestPushNackRedelivers(t *testing.T) {
	_, bus, stop := bootBrokerService(t)
	defer stop()
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Publish(ctx, "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Nack(ctx, "t", "g", m); err != nil {
		t.Fatal(err)
	}
	again, err := d.Next()
	if err != nil || string(again.Body) != "x" || again.Attempts != 2 {
		t.Fatalf("redelivery = %+v, %v; want attempt 2", again, err)
	}
	if err := bus.Ack(ctx, "t", "g", again); err != nil {
		t.Fatal(err)
	}
}

// TestPushSessionCloseWakesNext closes the session under a blocked Next and
// under a broker shutdown; both must wake promptly.
func TestPushSessionCloseWakesNext(t *testing.T) {
	vtime.Run(t, func() {
		_, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		woke := make(chan error, 1)
		go func() {
			_, err := d.Next()
			woke <- err
		}()
		vtime.Wait() // Next is parked on the idle stream
		d.Close()
		select {
		case err := <-woke:
			if err == nil {
				t.Fatal("Next returned a message from an idle closed session")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Next still parked after Close")
		}
	})
}

// TestPushHandBackIsPrompt: a consumer that stops while holding a leased
// message hands it to its sibling in the group at once. The broker's Push
// handler used to look at the stream's end only when its queue wait came
// round, so on an idle queue the hand-back waited out pushWaitSlice; it takes
// no time at all.
func TestPushHandBackIsPrompt(t *testing.T) {
	vtime.Run(t, func() {
		_, bus, stop := bootBrokerService(t)
		defer stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		holder, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Publish(ctx, "t", []byte("m")); err != nil {
			t.Fatal(err)
		}
		if _, err := holder.Next(); err != nil {
			t.Fatal(err)
		}
		// Leased to holder, whose broker-side loop is parked on the now idle
		// queue; the sibling's parks there too.
		sibling, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		defer sibling.Close()
		vtime.Wait()
		start := time.Now()
		holder.Close()
		m, err := sibling.Next()
		if err != nil || string(m.Body) != "m" || m.Attempts != 2 {
			t.Fatalf("sibling got %+v, %v; want the handed-back message, attempt 2", m, err)
		}
		if took := time.Since(start); took != 0 {
			t.Fatalf("hand-back took %v: it waited for the broker's %v wait slice", took, pushWaitSlice)
		}
		if err := bus.Ack(ctx, "t", "g", m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPushPartitioned drives push across the sharded replicated tier: every
// keyed message lands exactly once through the merged per-shard streams and
// key-addressed acks retire mirrors as usual.
func TestPushPartitioned(t *testing.T) {
	vtime.Run(t, func() {
		rig, bus := bootPartitioned(t, 2, 2)
		defer rig.stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		defer d.Close()
		const n = 16
		for i := 0; i < n; i++ {
			if _, err := bus.PublishKey(ctx, "t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
		got := map[string]string{}
		for len(got) < n {
			m, err := d.Next()
			if err != nil {
				t.Fatalf("Next after %d/%d: %v", len(got), n, err)
			}
			if _, dup := got[m.Key]; dup {
				t.Fatalf("key %q delivered twice", m.Key)
			}
			got[m.Key] = string(m.Body)
			if err := bus.Ack(ctx, "t", "g", m); err != nil {
				t.Fatalf("ack %q: %v", m.Key, err)
			}
		}
		for i := 0; i < n; i++ {
			if got[fmt.Sprintf("k%d", i)] != fmt.Sprintf("m%d", i) {
				t.Fatalf("key k%d = %q", i, got[fmt.Sprintf("k%d", i)])
			}
		}
		vtime.Wait()
		if lag := rig.cluster.GroupLag("t", "g"); lag != 0 {
			t.Fatalf("group lag %d once every delivery is acked, want 0", lag)
		}
	})
}

// TestPushPartitionedFailover crashes a shard primary under a standing push
// session: the per-shard loop reopens against the promoted mirror and the
// unacked message redelivers — at-least-once survives the crash without the
// consumer doing anything.
func TestPushPartitionedFailover(t *testing.T) {
	vtime.Run(t, func() {
		rig, bus := bootPartitioned(t, 1, 2)
		defer rig.stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := bus.PublishKey(ctx, "t", "k", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		m, err := d.Next()
		if err != nil || m.Key != "k" {
			t.Fatalf("first delivery = %+v, %v", m, err)
		}
		// Leased on the primary, unacked. Kill it: the mirror copy must come
		// back through the reopened stream.
		rig.crash(0, rig.primary(0))
		again, err := d.Next()
		if err != nil || again.Key != "k" || string(again.Body) != "payload" {
			t.Fatalf("post-crash redelivery = %+v, %v", again, err)
		}
		if err := bus.Ack(ctx, "t", "g", again); err != nil {
			t.Fatalf("ack: %v", err)
		}
		sq := rig.brokers[0][1-rig.primary(0)].Queue("t@g")
		vtime.Wait()
		if left := sq.Len() + sq.InFlight(); left != 0 {
			t.Fatalf("promoted mirror still holds %d after the ack, want 0", left)
		}
	})
}

// TestPartitionedConsumeWaitBudget is the wait-overshoot regression: with
// every shard primary hung, each per-shard poll used to get its own
// consumeGrace on top of its wait share, so a sweep over N shards burned
// wait + N*grace — 600ms here against a 200ms wait. The whole sweep must be
// bounded by wait plus ONE grace.
func TestPartitionedConsumeWaitBudget(t *testing.T) {
	vtime.Run(t, func() {
		rig, bus := bootPartitioned(t, 4, 1)
		defer rig.stop()
		ctx := context.Background()
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		for _, srvs := range rig.servers {
			srvs[0].Hang() // a corpse the lease has not evicted: consumes all frames, answers none
		}
		const wait = 200 * time.Millisecond
		start := time.Now()
		_, err := bus.Consume(ctx, "t", "g", time.Minute, wait)
		took := time.Since(start)
		if err == nil {
			t.Fatal("consume against all-hung primaries reported success")
		}
		// The pre-fix code took wait + 4*consumeGrace (600ms).
		if want := wait + consumeGrace; took != want {
			t.Fatalf("consume sweep took %v, want %v (grace must not sum across shards)", took, want)
		}
	})
}
