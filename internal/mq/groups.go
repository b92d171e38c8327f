package mq

import (
	"sync"
)

// Topic is a named pub/sub channel with consumer-group semantics: every
// subscribed group receives each published message exactly once (queue
// semantics within the group — its members share the partition), mirroring
// how Kafka consumer groups or RabbitMQ exchange+queue bindings are used
// behind DeathStarBench's async paths.
//
// Groups must subscribe before the publishes they care about: a publish
// fans out only to the groups subscribed at that moment, and a publish with
// zero subscribers is dropped. Application stacks therefore subscribe their
// groups in the broker's boot hook, before any producer starts.
type Topic struct {
	b    *Broker
	name string

	mu     sync.Mutex
	cfg    QueueConfig
	groups map[string]*Queue
}

// Topic returns the named topic, creating it if needed.
func (b *Broker) Topic(name string) *Topic {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		t = &Topic{b: b, name: name, groups: make(map[string]*Queue)}
		b.topics[name] = t
	}
	return t
}

// Configure sets the per-group queue bounds; it applies to groups already
// subscribed and to future subscriptions.
func (t *Topic) Configure(cfg QueueConfig) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg = cfg
	for group := range t.groups {
		t.groups[group] = t.b.Configure(t.groupQueueName(group), cfg)
	}
}

// Subscribe registers a consumer group and returns its queue. Subscribing
// twice is idempotent: members of the same group share one queue, which is
// exactly what makes them share the partition.
func (t *Topic) Subscribe(group string) *Queue {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, ok := t.groups[group]
	if !ok {
		q = t.b.Configure(t.groupQueueName(group), t.cfg)
		t.groups[group] = q
	}
	return q
}

// groupQueueName makes group queues addressable as plain broker queues
// ("timeline@fanout"), which is how the RPC service and stats find them.
func (t *Topic) groupQueueName(group string) string { return t.name + "@" + group }

// PublishKey fans the message out to every subscribed group's queue and
// returns the ID assigned by the first group (IDs are per-queue). If any
// group's queue sheds on MaxDepth the error is returned, but groups already
// appended keep the message — at-least-once delivery, never silent loss. A
// non-empty key makes retries against the same broker idempotent per group
// (see Queue.PublishKey); replicated publishes carry one.
func (t *Topic) PublishKey(key string, body []byte) (uint64, error) {
	var first uint64
	for i, q := range t.groupQueues() {
		id, err := q.PublishKey(key, body)
		if err != nil {
			return first, err
		}
		if i == 0 {
			first = id
		}
	}
	return first, nil
}

// Insert mirrors an already-admitted keyed message into every subscribed
// group's queue (see Queue.Insert: idempotent, tombstone-aware, bypasses
// MaxDepth). Reports how many group queues actually accepted a copy.
func (t *Topic) Insert(key string, body []byte) int {
	n := 0
	for _, q := range t.groupQueues() {
		if q.Insert(key, body) {
			n++
		}
	}
	return n
}

func (t *Topic) groupQueues() []*Queue {
	t.mu.Lock()
	defer t.mu.Unlock()
	qs := make([]*Queue, 0, len(t.groups))
	for _, q := range t.groups {
		qs = append(qs, q)
	}
	return qs
}

// GroupLag reports one group's backlog (queued + in-flight): the signal
// lag-driven autoscaling watches.
func (t *Topic) GroupLag(group string) int64 {
	t.mu.Lock()
	q, ok := t.groups[group]
	t.mu.Unlock()
	if !ok {
		return 0
	}
	return q.Stats().Lag()
}
