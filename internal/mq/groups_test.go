package mq

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/vtime"
)

// TestPoisonMessageDeadLetters is the head-of-line regression test: a
// message whose consumer always nacks must stop recycling to the front
// after MaxAttempts and move to the DLQ, letting the messages behind it
// flow.
func TestPoisonMessageDeadLetters(t *testing.T) {
	b := NewBroker()
	q := b.Configure("orders", QueueConfig{MaxAttempts: 3})
	q.Publish([]byte("poison")) //nolint:errcheck
	q.Publish([]byte("good"))   //nolint:errcheck

	// The poison message is delivered and nacked MaxAttempts times...
	for attempt := 1; attempt <= 3; attempt++ {
		msg, ok := q.TryReceive(time.Minute)
		if !ok || string(msg.Body) != "poison" {
			t.Fatalf("attempt %d: got %q, ok=%v", attempt, msg.Body, ok)
		}
		if msg.Attempts != attempt {
			t.Fatalf("attempt %d: Attempts = %d", attempt, msg.Attempts)
		}
		if !q.Nack(msg.ID) {
			t.Fatalf("attempt %d: Nack failed", attempt)
		}
	}
	// ...after which the healthy message behind it is deliverable.
	msg, ok := q.TryReceive(time.Minute)
	if !ok || string(msg.Body) != "good" {
		t.Fatalf("after dead-letter, head of queue = %q, ok=%v — poison still blocking", msg.Body, ok)
	}
	q.Ack(msg.ID)

	dlq := b.Queue("orders" + DeadLetterSuffix)
	dead, ok := dlq.TryReceive(time.Minute)
	if !ok || string(dead.Body) != "poison" {
		t.Fatalf("DLQ head = %q, ok=%v", dead.Body, ok)
	}
	s := q.Stats()
	if s.DeadLettered != 1 {
		t.Fatalf("DeadLettered = %d, want 1", s.DeadLettered)
	}
}

// TestLeaseExpiryDeadLetters covers the other poison path: a consumer that
// crashes (never settles) burns attempts via lease expiry, and the message
// dead-letters instead of recycling forever.
func TestLeaseExpiryDeadLetters(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		q := b.Configure("q", QueueConfig{MaxAttempts: 2})
		q.Publish([]byte("m")) //nolint:errcheck
		for attempt := 1; attempt <= 2; attempt++ {
			msg, ok := q.TryReceive(time.Second)
			if !ok || msg.Attempts != attempt {
				t.Fatalf("attempt %d: %+v ok=%v", attempt, msg, ok)
			}
			vtime.Advance(time.Second) // lease expires, consumer never acks
		}
		if _, ok := q.TryReceive(time.Second); ok {
			t.Fatal("exhausted message redelivered instead of dead-lettered")
		}
		if got := b.Queue("q" + DeadLetterSuffix).Len(); got != 1 {
			t.Fatalf("DLQ Len = %d, want 1", got)
		}
	})
}

func TestPublishShedsAtMaxDepth(t *testing.T) {
	b := NewBroker()
	q := b.Configure("q", QueueConfig{MaxDepth: 3})
	for i := 0; i < 3; i++ {
		if _, err := q.Publish([]byte{byte(i)}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	_, err := q.Publish([]byte("over"))
	if rpc.ErrorCode(err) != rpc.CodeOverloaded {
		t.Fatalf("publish beyond MaxDepth = %v, want CodeOverloaded", err)
	}
	// In-flight still counts against depth: lease one out and retry.
	msg, _ := q.TryReceive(time.Minute)
	if _, err := q.Publish([]byte("still-over")); rpc.ErrorCode(err) != rpc.CodeOverloaded {
		t.Fatalf("publish with depth held in-flight = %v, want CodeOverloaded", err)
	}
	// Only an ack (not a mere lease) frees depth for a new publish.
	q.Ack(msg.ID)
	if _, err := q.Publish([]byte("fits")); err != nil {
		t.Fatalf("publish after ack: %v", err)
	}
}

func TestStatsCountsAndOldestAge(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		q := b.Queue("q")
		q.Publish([]byte("a")) //nolint:errcheck
		vtime.Advance(3 * time.Second)
		q.Publish([]byte("b")) //nolint:errcheck
		msg, _ := q.TryReceive(time.Minute)
		s := q.Stats()
		if s.Queued != 1 || s.InFlight != 1 || s.Published != 2 {
			t.Fatalf("Stats = %+v", s)
		}
		if s.Lag() != 2 {
			t.Fatalf("Lag = %d, want 2 — in-flight must count toward backlog", s.Lag())
		}
		// "b" was published at t+3s and is the only queued item; its age is 0
		// until the clock moves.
		if s.OldestAge != 0 {
			t.Fatalf("OldestAge = %v, want 0", s.OldestAge)
		}
		vtime.Advance(5 * time.Second)
		if got := q.Stats().OldestAge; got != 5*time.Second {
			t.Fatalf("OldestAge = %v, want 5s", got)
		}
		q.Nack(msg.ID)
		q2, _ := q.TryReceive(time.Minute)
		q.Ack(q2.ID)
		s = q.Stats()
		if s.Redelivered != 1 || s.Acked != 1 {
			t.Fatalf("Redelivered/Acked = %d/%d, want 1/1", s.Redelivered, s.Acked)
		}
	})
}

// TestEveryGroupGetsEveryMessage pins topic fan-out: each subscribed group
// sees each publish exactly once, and members within a group split the
// stream rather than duplicating it.
func TestEveryGroupGetsEveryMessage(t *testing.T) {
	b := NewBroker()
	topic := b.Topic("events")
	topic.Subscribe("indexer")
	topic.Subscribe("mailer")
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := topic.Publish([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for _, group := range topic.Groups() {
		q := topic.Subscribe(group)
		// Two members of the group drain it concurrently.
		seen := make(map[string]int)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for m := 0; m < 2; m++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					msg, ok := q.TryReceive(time.Minute)
					if !ok {
						return
					}
					mu.Lock()
					seen[string(msg.Body)]++
					mu.Unlock()
					q.Ack(msg.ID)
				}
			}()
		}
		wg.Wait()
		if len(seen) != n {
			t.Fatalf("group %s saw %d distinct messages, want %d", group, len(seen), n)
		}
		for body, count := range seen {
			if count != 1 {
				t.Fatalf("group %s saw %s %d times", group, body, count)
			}
		}
	}
}

func TestPublishWithNoGroupsDrops(t *testing.T) {
	b := NewBroker()
	if _, err := b.Topic("empty").Publish([]byte("x")); err != nil {
		t.Fatalf("publish to subscriber-less topic: %v", err)
	}
	b.Topic("empty").Subscribe("late")
	if _, ok := b.Topic("empty").Subscribe("late").TryReceive(time.Minute); ok {
		t.Fatal("late subscriber received a pre-subscription publish")
	}
}

// TestGroupRedeliveryOnLeaseExpiry is the acceptance test for consumer-group
// at-least-once delivery: a group member that takes a message and dies
// (lease expires, never settles) must see the broker redeliver that message
// to a surviving member of the same group.
func TestGroupRedeliveryOnLeaseExpiry(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		topic := b.Topic("orders")
		topic.Subscribe("commit")
		if _, err := topic.Publish([]byte("order-7")); err != nil {
			t.Fatalf("publish: %v", err)
		}

		// Member A of group "commit" takes the message and crashes.
		memberA := topic.Subscribe("commit")
		msg, ok := memberA.TryReceive(time.Second)
		if !ok || msg.Attempts != 1 {
			t.Fatalf("member A receive = %+v ok=%v", msg, ok)
		}
		if topic.GroupLag("commit") != 1 {
			t.Fatalf("lag with message in flight = %d, want 1", topic.GroupLag("commit"))
		}

		// Before the lease expires, member B sees nothing: the partition is
		// shared, not duplicated.
		memberB := topic.Subscribe("commit")
		if _, ok := memberB.TryReceive(time.Second); ok {
			t.Fatal("member B received a message member A holds a live lease on")
		}

		vtime.Advance(time.Second) // member A's lease runs out
		again, ok := memberB.TryReceive(time.Second)
		if !ok || string(again.Body) != "order-7" || again.Attempts != 2 {
			t.Fatalf("member B redelivery = %+v ok=%v", again, ok)
		}
		if !memberB.Ack(again.ID) {
			t.Fatal("member B ack failed")
		}
		if got := topic.GroupLag("commit"); got != 0 {
			t.Fatalf("lag after settle = %d, want 0", got)
		}
		if s := memberB.Stats(); s.Redelivered != 1 {
			t.Fatalf("Redelivered = %d, want 1", s.Redelivered)
		}
	})
}

func TestTopicConfigureAppliesToGroups(t *testing.T) {
	b := NewBroker()
	topic := b.Topic("t")
	topic.Subscribe("early")
	topic.Configure(QueueConfig{MaxDepth: 1})
	topic.Subscribe("late")
	if _, err := topic.Publish([]byte("one")); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	_, err := topic.Publish([]byte("two"))
	if rpc.ErrorCode(err) != rpc.CodeOverloaded {
		t.Fatalf("publish beyond group MaxDepth = %v, want CodeOverloaded", err)
	}
	var coded *rpc.Error
	if !errors.As(err, &coded) {
		t.Fatalf("error is not an rpc coded error: %v", err)
	}
}

func TestReceiveWait(t *testing.T) {
	vtime.Run(t, func() {
		b := NewBroker()
		q := b.Queue("q")
		start := time.Now()
		if _, ok := q.ReceiveWait(time.Minute, 30*time.Millisecond); ok {
			t.Fatal("ReceiveWait on empty queue returned a message")
		}
		if elapsed := time.Since(start); elapsed != 30*time.Millisecond {
			t.Fatalf("ReceiveWait returned after %v, want its whole 30ms wait", elapsed)
		}
		// A publish during the park wakes the receiver early.
		got := make(chan Message, 1)
		go func() {
			if msg, ok := q.ReceiveWait(time.Minute, 5*time.Second); ok {
				got <- msg
			}
		}()
		vtime.Wait()              // the receiver is parked
		q.Publish([]byte("wake")) //nolint:errcheck
		select {
		case msg := <-got:
			if string(msg.Body) != "wake" {
				t.Fatalf("got %q", msg.Body)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("parked ReceiveWait never woke on publish")
		}
	})
}
