package mq

import (
	"fmt"
	"sync"
	"time"
)

// Cluster is the composition root's white-box handle over the broker tier:
// the local *Broker instances behind the RPC facade, in boot order. Tests
// and drain loops use it where they previously held the single *Broker —
// aggregate lag, DLQ drains — without caring whether the tier is one
// instance or shards×replicas. Instances register at boot (the stack's
// shard-replica factory adds each broker as it is created), so the handle
// can be returned before Boot runs.
type Cluster struct {
	mu      sync.Mutex
	brokers []*Broker
}

// NewCluster builds a handle over the given brokers (more may be added).
func NewCluster(brokers ...*Broker) *Cluster {
	return &Cluster{brokers: brokers}
}

// Add registers a broker instance; called by the stack's boot factory.
func (c *Cluster) Add(b *Broker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.brokers = append(c.brokers, b)
}

// Brokers snapshots the local instances in boot order.
func (c *Cluster) Brokers() []*Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Broker(nil), c.brokers...)
}

// GroupLag sums one group's backlog across every local broker instance.
// Mirror copies count until their settles land, so the sum reaches zero
// exactly when the group's work is done *and* fully retired tier-wide —
// the convergence signal drain loops poll. (A crashed broker's frozen
// backlog never retires; drain loops around crash experiments probe
// delivered work directly instead.)
func (c *Cluster) GroupLag(topic, group string) int64 {
	var sum int64
	for _, b := range c.Brokers() {
		sum += b.Topic(topic).GroupLag(group)
	}
	return sum
}

// Drain blocks until the group's backlog reaches zero — every published
// message handled and settled tier-wide — or the timeout elapses: the
// convergence bound deterministic tests use before asserting state the
// consumers write. A nil cluster (a deployment with no broker tier) drains
// trivially.
func (c *Cluster) Drain(topic, group string, timeout time.Duration) error {
	if c == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		lag := c.GroupLag(topic, group)
		if lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mq: %s@%s backlog still %d after %v", topic, group, lag, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// GroupStats aggregates one group queue's stats across the local instances —
// lifetime counters sum, point-in-time gauges sum, oldest age maxes.
func (c *Cluster) GroupStats(topic, group string) Stats {
	var out Stats
	for _, b := range c.Brokers() {
		s := b.Topic(topic).Subscribe(group).Stats()
		out.Queued += s.Queued
		out.InFlight += s.InFlight
		out.Published += s.Published
		out.Acked += s.Acked
		out.Redelivered += s.Redelivered
		out.DeadLettered += s.DeadLettered
		if s.OldestAge > out.OldestAge {
			out.OldestAge = s.OldestAge
		}
	}
	return out
}
