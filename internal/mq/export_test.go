package mq

import (
	"sort"
	"time"
)

// Receive is ReceiveWait with no bound on the wait.
func (q *Queue) Receive(leaseFor time.Duration) (Message, bool) {
	return q.receive(leaseFor, nil, nil)
}

// Len returns the number of queued (not in-flight) messages.
func (q *Queue) Len() int {
	q.q.mu.Lock()
	defer q.q.mu.Unlock()
	return len(q.q.items)
}

// InFlight returns the number of leased, unacked messages.
func (q *Queue) InFlight() int {
	q.q.mu.Lock()
	defer q.q.mu.Unlock()
	return len(q.q.inflight)
}

// Close wakes all blocked receivers; subsequent publishes fail and
// receives drain remaining items then report closed.
func (q *Queue) Close() {
	q.q.mu.Lock()
	q.q.closed = true
	q.q.cond.Broadcast()
	q.q.mu.Unlock()
}

// Lag is the consumer backlog (queued + in-flight).
func (s StatsResp) Lag() int64 { return int64(s.Queued + s.InFlight) }

// Groups returns the subscribed group names, sorted.
func (t *Topic) Groups() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.groups))
	for g := range t.groups {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}

// Publish is PublishKey without a key.
func (t *Topic) Publish(body []byte) (uint64, error) {
	return t.PublishKey("", body)
}
