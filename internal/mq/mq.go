// Package mq implements the suite's message queue — the role RabbitMQ
// plays as the orderQueue behind queueMaster in the E-commerce service.
// Queues are named, FIFO, and support consumer acknowledgement with
// redelivery: a message dequeued but not acked within its lease returns to
// the front of the queue, so a crashed worker never loses an order. This
// serialization point is exactly the scalability constraint Section 7 of
// the paper attributes to queueMaster.
//
// Beyond plain queues the broker offers topics with consumer groups (see
// groups.go): every subscribed group receives each published message once,
// and members of a group share the partition. A broker can also be served
// over RPC (see service.go) so producer, broker, and consumers run as
// separate tiers, which is how the e-commerce and social-network apps use
// it for async order commit and timeline fan-out.
package mq

import (
	"strings"
	"sync"
	"time"

	"dsb/internal/rpc"
)

// DeadLetterSuffix names the queue that collects messages exhausted by
// MaxAttempts: queue "orders" dead-letters into "orders.dlq".
const DeadLetterSuffix = ".dlq"

// Message is one queued item.
type Message struct {
	// ID is assigned by the broker, monotonically increasing per queue.
	ID uint64
	// Key is the publisher-assigned globally-unique message key, carried by
	// replicated publishes. It is what ties the copies of one message
	// together across broker replicas: publish dedup, mirror insertion,
	// settle-by-key, and consumer-side idempotency all hang off it. Plain
	// single-broker publishes leave it empty.
	Key string
	// Body is the payload.
	Body []byte
	// Attempts counts deliveries, 1 on first receive.
	Attempts int
}

// QueueConfig bounds a queue's retry and depth behavior. The zero value
// means unbounded: no dead-lettering, no depth limit.
type QueueConfig struct {
	// MaxAttempts caps deliveries per message. A message that is nacked or
	// lease-expires after its MaxAttempts'th delivery moves to the
	// dead-letter queue instead of returning to the front — otherwise one
	// poison message would block the head of a FIFO queue forever.
	MaxAttempts int
	// MaxDepth bounds queued+in-flight messages; Publish sheds with
	// CodeOverloaded beyond it. Counting in-flight matters: a queue with
	// 0 queued and 256 leased is not empty, it is saturated.
	MaxDepth int
}

// Stats is a point-in-time snapshot of one queue: the backlog drain loops
// and the benchmark's order check read.
type Stats struct {
	// Queued is the number of deliverable messages (excludes in-flight).
	Queued int
	// InFlight is the number of leased, unacked messages.
	InFlight int
	// Published, Acked, Redelivered, and DeadLettered are lifetime counters.
	Published    int64
	Acked        int64
	Redelivered  int64
	DeadLettered int64
	// OldestAge is the age of the oldest queued message.
	OldestAge time.Duration
}

// Lag is the consumer backlog: messages not yet successfully processed.
func (s Stats) Lag() int64 { return int64(s.Queued + s.InFlight) }

// Broker holds named queues and topics.
type Broker struct {
	mu     sync.Mutex
	queues map[string]*queue
	topics map[string]*Topic
	closed bool
}

// tombstoneCap bounds each queue's settled-key memory. A tombstone records
// that a keyed message was settled here before its mirror copy arrived —
// the race a replicated ack loses when the consumer settles faster than the
// publisher finishes mirroring — so the late insert is dropped instead of
// resurrecting a processed message. The cap is the broker-side half of the
// "dedup window": a redelivery arriving after the key has been evicted is
// delivered again, which at-least-once consumers already tolerate.
const tombstoneCap = 4096

type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []*item // FIFO: items[0] is next
	inflight map[uint64]*item
	index    map[string]*item // key -> live item (queued or in-flight)
	nextID   uint64
	closed   bool

	cfg QueueConfig
	dlq *queue // destination when MaxAttempts is exhausted; nil = drop to requeue

	tombs     map[string]struct{}
	tombOrder []string // FIFO eviction ring for tombs

	published    int64
	acked        int64
	redelivered  int64
	deadLettered int64
}

type item struct {
	msg      Message
	enqueued time.Time
	leasedAt time.Time
	lease    time.Duration
	owner    *Session // holding the current lease; nil = none
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{queues: make(map[string]*queue), topics: make(map[string]*Topic)}
}

// Queue returns the named queue, creating it if needed.
func (b *Broker) Queue(name string) *Queue {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &Queue{q: b.queueLocked(name), name: name}
}

func (b *Broker) queueLocked(name string) *queue {
	q, ok := b.queues[name]
	if !ok {
		q = &queue{
			inflight: make(map[uint64]*item),
			index:    make(map[string]*item), tombs: make(map[string]struct{}),
			closed: b.closed,
		}
		q.cond = sync.NewCond(&q.mu)
		b.queues[name] = q
	}
	return q
}

// Close shuts the whole broker down: every queue closes (waking parked
// receivers so they return promptly instead of burning their wait budget)
// and queues created afterwards are born closed. RegisterService wires this
// to the hosting RPC server's shutdown, so a broker tier never strands
// long-poll handlers past its own Close.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	qs := make([]*queue, 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.mu.Unlock()
	for _, qq := range qs {
		qq.mu.Lock()
		qq.closed = true
		qq.cond.Broadcast()
		qq.mu.Unlock()
	}
}

// Configure sets the named queue's retry/depth bounds and returns it. When
// MaxAttempts is positive the companion dead-letter queue (name +
// DeadLetterSuffix) is created to receive exhausted messages.
func (b *Broker) Configure(name string, cfg QueueConfig) *Queue {
	b.mu.Lock()
	qq := b.queueLocked(name)
	var dlq *queue
	if cfg.MaxAttempts > 0 {
		dlq = b.queueLocked(name + DeadLetterSuffix)
	}
	b.mu.Unlock()
	qq.mu.Lock()
	qq.cfg = cfg
	qq.dlq = dlq
	qq.mu.Unlock()
	return &Queue{q: qq, name: name}
}

// Queue is a handle on one named queue.
type Queue struct {
	q    *queue
	name string
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Publish appends a message and returns its ID. When the queue is
// configured with MaxDepth, publishes beyond it fail with CodeOverloaded so
// producers shed instead of growing the backlog without bound.
func (q *Queue) Publish(body []byte) (uint64, error) {
	return q.PublishKey("", body)
}

// PublishKey is Publish with a publisher-assigned message key. Keyed
// publishes are idempotent within the dedup window: a key already live in
// the queue (a retried or hedged publish) returns the existing ID, and a
// tombstoned key (already settled here) returns without enqueueing — both
// succeed, because the producer's intent is satisfied either way.
func (q *Queue) PublishKey(key string, body []byte) (uint64, error) {
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	if qq.closed {
		return 0, rpc.Errorf(rpc.CodeUnavailable, "mq: queue %q closed", q.name)
	}
	if key != "" {
		if it, ok := qq.index[key]; ok {
			return it.msg.ID, nil
		}
		if _, dead := qq.tombs[key]; dead {
			return 0, nil
		}
	}
	if qq.cfg.MaxDepth > 0 && len(qq.items)+len(qq.inflight) >= qq.cfg.MaxDepth {
		return 0, rpc.Errorf(rpc.CodeOverloaded, "mq: queue %q full: %d queued + %d in flight >= max depth %d",
			q.name, len(qq.items), len(qq.inflight), qq.cfg.MaxDepth)
	}
	return qq.enqueueLocked(key, body, 0), nil
}

// enqueueLocked appends a fresh item, indexing its key. Callers hold qq.mu.
func (qq *queue) enqueueLocked(key string, body []byte, attempts int) uint64 {
	qq.nextID++
	qq.published++
	// The queue keeps copies of its own: a key decoded from a request shares
	// its memory with the whole request.
	key = strings.Clone(key)
	cp := make([]byte, len(body))
	copy(cp, body)
	it := &item{msg: Message{ID: qq.nextID, Key: key, Body: cp, Attempts: attempts}, enqueued: time.Now()}
	qq.items = append(qq.items, it)
	if key != "" {
		qq.index[key] = it
	}
	qq.cond.Signal()
	return qq.nextID
}

// Insert is the mirror-enqueue primitive behind broker replication: a
// replica accepting a copy of a message its shard's primary already
// admitted. It is idempotent by key (re-mirrors after a retry are dropped),
// honors tombstones (the copy of an already-settled message is dropped),
// and deliberately bypasses MaxDepth — admission is the primary's call, and
// a mirror that shed an admitted message would silently void the
// replication guarantee. Returns whether a copy was actually added.
func (q *Queue) Insert(key string, body []byte) bool {
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	if qq.closed || key == "" {
		return false
	}
	if _, ok := qq.index[key]; ok {
		return false
	}
	if _, dead := qq.tombs[key]; dead {
		return false
	}
	qq.enqueueLocked(key, body, 0)
	return true
}

// Remove settles a keyed message wherever it is — queued or in-flight —
// and reports whether a copy was found. It is the replicated ack: consumers
// settle by key on every replica of the owning shard, so mirror copies
// disappear with the primary's. An unknown key leaves a tombstone so the
// mirror copy still on the wire is dropped on arrival instead of being
// redelivered after a failover.
func (q *Queue) Remove(key string) bool {
	if key == "" {
		return false
	}
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	it, ok := qq.index[key]
	if !ok {
		qq.tombstoneLocked(key)
		return false
	}
	qq.dropLocked(it)
	qq.acked++
	return true
}

// dropLocked unlinks a live item from whichever structure holds it.
func (qq *queue) dropLocked(it *item) {
	if _, inflight := qq.inflight[it.msg.ID]; inflight {
		delete(qq.inflight, it.msg.ID)
	} else {
		for i, cand := range qq.items {
			if cand == it {
				qq.items = append(qq.items[:i], qq.items[i+1:]...)
				break
			}
		}
	}
	if it.msg.Key != "" {
		delete(qq.index, it.msg.Key)
	}
}

// tombstoneLocked records a settled-elsewhere key, evicting FIFO past the cap.
func (qq *queue) tombstoneLocked(key string) {
	if _, ok := qq.tombs[key]; ok {
		return
	}
	key = strings.Clone(key)
	qq.tombs[key] = struct{}{}
	qq.tombOrder = append(qq.tombOrder, key)
	if len(qq.tombOrder) > tombstoneCap {
		delete(qq.tombs, qq.tombOrder[0])
		qq.tombOrder = qq.tombOrder[1:]
	}
}

// ReceiveWait leases the next message to the caller for leaseFor (if not
// acked in time it is redelivered; leaseFor <= 0 means a 30s default),
// waiting for one to arrive, and returns ok=false once wait elapses with
// nothing deliverable or the queue closes. This is the long-poll primitive the
// networked broker service builds Consume on — consumers park here instead
// of hot-polling, and a publish or lease expiry wakes them early.
func (q *Queue) ReceiveWait(leaseFor, wait time.Duration) (Message, bool) {
	if wait <= 0 {
		return q.TryReceive(leaseFor)
	}
	return q.receiveWait(leaseFor, wait, nil)
}

func (q *Queue) receiveWait(leaseFor, wait time.Duration, owner *Session) (Message, bool) {
	// A ready message is leased without arming the timer.
	expired := true
	if msg, ok := q.receive(leaseFor, &expired, owner); ok {
		return msg, true
	}
	timedOut := false
	qq := q.q
	// sync.Cond has no timed wait; a timer flips timedOut under the queue
	// lock and broadcasts so the parked receiver re-checks and gives up.
	timer := time.AfterFunc(wait, func() {
		qq.mu.Lock()
		timedOut = true
		qq.cond.Broadcast()
		qq.mu.Unlock()
	})
	defer timer.Stop()
	return q.receive(leaseFor, &timedOut, owner)
}

// TryReceive is ReceiveWait without waiting; ok is false when empty.
func (q *Queue) TryReceive(leaseFor time.Duration) (Message, bool) {
	expired := true
	return q.receive(leaseFor, &expired, nil)
}

// Session is a lease owner on one queue — the broker's end of a push
// stream. Whatever it received that nobody has settled returns to the queue
// when it closes, the way RabbitMQ requeues a closed channel's unacked
// deliveries: messages buffered in the consumer's stream window, dropped in
// transit by the teardown, or in the hands of a consumer that died all
// redeliver at once instead of at lease expiry.
type Session struct {
	q      *Queue
	closed bool // under the queue lock
}

// Session opens a lease owner on the queue.
func (q *Queue) Session() *Session { return &Session{q: q} }

// ReceiveWait is Queue.ReceiveWait with the lease owned by the session; on
// a closed session it returns ok=false at once.
func (s *Session) ReceiveWait(leaseFor, wait time.Duration) (Message, bool) {
	return s.q.receiveWait(leaseFor, wait, s)
}

// Close returns the session's unsettled leases to the front of the queue,
// in ID order, dead-lettering the ones that have exhausted MaxAttempts, and
// ends the session: a ReceiveWait parked on it wakes empty-handed instead of
// leasing back what was just returned. Safe to call from another goroutine
// than the receiver's, and more than once.
func (s *Session) Close() {
	qq := s.q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	s.closed = true
	qq.requeueLocked(func(it *item) bool { return it.owner == s })
	qq.cond.Broadcast() // with nothing to requeue, the session's own waiter still has to hear
}

// receive is the shared dequeue path. timedOut, when non-nil, is read under
// the queue lock: the loop gives up once it is true and nothing is
// deliverable (nil means block until delivery or close). owner, when
// non-nil, is the Session the lease belongs to, and closing it ends the wait.
func (q *Queue) receive(leaseFor time.Duration, timedOut *bool, owner *Session) (Message, bool) {
	if leaseFor <= 0 {
		leaseFor = 30 * time.Second
	}
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	for {
		if owner != nil && owner.closed {
			return Message{}, false
		}
		qq.reclaimExpiredLocked()
		if len(qq.items) > 0 {
			it := qq.items[0]
			qq.items = qq.items[1:]
			it.msg.Attempts++
			it.leasedAt = time.Now()
			it.lease = leaseFor
			it.owner = owner
			qq.inflight[it.msg.ID] = it
			return it.msg, true
		}
		if qq.closed || (timedOut != nil && *timedOut) {
			return Message{}, false
		}
		qq.cond.Wait()
	}
}

// reclaimExpiredLocked returns timed-out in-flight messages to the front of
// the queue, preserving ID order among reclaimed items. Messages that have
// exhausted MaxAttempts divert to the dead-letter queue instead.
func (qq *queue) reclaimExpiredLocked() {
	if len(qq.inflight) == 0 {
		return
	}
	now := time.Now()
	qq.requeueLocked(func(it *item) bool { return now.Sub(it.leasedAt) >= it.lease })
}

// requeueLocked returns the in-flight messages lost selects to the front of
// the queue, preserving ID order among them, and diverts those that have
// exhausted MaxAttempts to the dead-letter queue.
func (qq *queue) requeueLocked(lost func(*item) bool) {
	var back []*item
	for id, it := range qq.inflight {
		if lost(it) {
			delete(qq.inflight, id)
			if qq.deadLetterLocked(it) {
				continue
			}
			qq.redelivered++
			back = append(back, it)
		}
	}
	if len(back) == 0 {
		return
	}
	// Order requeued items by ID, then put them ahead of fresh items.
	for i := 1; i < len(back); i++ {
		for j := i; j > 0 && back[j].msg.ID < back[j-1].msg.ID; j-- {
			back[j], back[j-1] = back[j-1], back[j]
		}
	}
	qq.items = append(back, qq.items...)
	qq.cond.Broadcast()
}

// deadLetterLocked moves an exhausted message to the DLQ, reporting whether
// it did. Called with qq.mu held; takes the DLQ's lock, which is safe
// because a dead-letter queue never has a DLQ of its own (no cycle). The
// message keeps its Key in the DLQ, and the origin queue tombstones the key
// so a mirror copy cannot resurrect a dead-lettered message.
func (qq *queue) deadLetterLocked(it *item) bool {
	if qq.cfg.MaxAttempts <= 0 || it.msg.Attempts < qq.cfg.MaxAttempts || qq.dlq == nil {
		return false
	}
	qq.deadLettered++
	if it.msg.Key != "" {
		delete(qq.index, it.msg.Key)
		qq.tombstoneLocked(it.msg.Key)
	}
	d := qq.dlq
	d.mu.Lock()
	if !d.closed {
		d.nextID++
		d.published++
		d.items = append(d.items, &item{
			msg:      Message{ID: d.nextID, Key: it.msg.Key, Body: it.msg.Body, Attempts: it.msg.Attempts},
			enqueued: time.Now(),
		})
		d.cond.Signal()
	}
	d.mu.Unlock()
	return true
}

// Ack confirms processing of a leased message; returns false for unknown
// or already-expired leases.
func (q *Queue) Ack(id uint64) bool {
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	it, ok := qq.inflight[id]
	if !ok {
		return false
	}
	delete(qq.inflight, id)
	if it.msg.Key != "" {
		delete(qq.index, it.msg.Key)
	}
	qq.acked++
	return true
}

// Nack returns a leased message to the front of the queue immediately —
// unless it has exhausted MaxAttempts, in which case it dead-letters so a
// perpetually failing message cannot head-of-line-block the queue.
func (q *Queue) Nack(id uint64) bool {
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	it, ok := qq.inflight[id]
	if !ok {
		return false
	}
	delete(qq.inflight, id)
	if qq.deadLetterLocked(it) {
		return true
	}
	qq.redelivered++
	qq.items = append([]*item{it}, qq.items...)
	qq.cond.Signal()
	return true
}

// NackKey returns a live keyed message to the front of the queue by key —
// the failover-side settle used when a consumer that leased from a
// now-dead primary reports failure to the surviving replica, where the
// mirror copy may be queued rather than leased. Queued copies move to the
// front; leased copies take the normal Nack path (including MaxAttempts
// dead-lettering). Unknown keys report false without tombstoning: a failed
// attempt must stay redeliverable.
func (q *Queue) NackKey(key string) bool {
	if key == "" {
		return false
	}
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	it, ok := qq.index[key]
	if !ok {
		return false
	}
	if _, inflight := qq.inflight[it.msg.ID]; inflight {
		delete(qq.inflight, it.msg.ID)
		if qq.deadLetterLocked(it) {
			return true
		}
		qq.redelivered++
		qq.items = append([]*item{it}, qq.items...)
		qq.cond.Signal()
		return true
	}
	for i, cand := range qq.items {
		if cand == it {
			copy(qq.items[1:i+1], qq.items[:i])
			qq.items[0] = it
			qq.cond.Signal()
			return true
		}
	}
	return false
}

// Closed reports whether the queue (or its broker) has been shut down. The
// Consume RPC handler uses this to distinguish "closed, go away" from
// "empty poll, come back" for parked long-pollers.
func (q *Queue) Closed() bool {
	q.q.mu.Lock()
	defer q.q.mu.Unlock()
	return q.q.closed
}

// Stats snapshots the queue. Expired leases are reclaimed first so the
// queued/in-flight split reflects reality, not stale leases.
func (q *Queue) Stats() Stats {
	qq := q.q
	qq.mu.Lock()
	defer qq.mu.Unlock()
	qq.reclaimExpiredLocked()
	s := Stats{
		Queued:       len(qq.items),
		InFlight:     len(qq.inflight),
		Published:    qq.published,
		Acked:        qq.acked,
		Redelivered:  qq.redelivered,
		DeadLettered: qq.deadLettered,
	}
	if len(qq.items) > 0 {
		now := time.Now()
		for _, it := range qq.items {
			if age := now.Sub(it.enqueued); age > s.OldestAge {
				s.OldestAge = age
			}
		}
	}
	return s
}
