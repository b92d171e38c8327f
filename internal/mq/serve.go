package mq

import (
	"context"
	"time"

	"dsb/internal/rpc"
)

// Handler processes one delivery. Returning nil acks the message; an error
// nacks it back for redelivery (or dead-lettering, once the topic's
// MaxAttempts are spent). ctx ends when the worker is told to stop.
type Handler func(ctx context.Context, m ConsumeResp) error

// nackPause spaces a worker's next delivery after a Nack, so a handler that
// failed on a tier which just said "not now" does not hot-loop on it.
const nackPause = 5 * time.Millisecond

// settleGrace bounds, from the moment a worker is told to stop, the settle
// it may still be in the middle of, so a hung broker costs shutdown this
// long and no longer.
const settleGrace = 2 * time.Second

// Worker is one running member of a consumer group, started by Serve.
type Worker struct {
	stop   context.CancelFunc // ends the session and the handler's context
	expire context.CancelFunc // ends the settle context
	done   chan struct{}
}

// Serve starts one member of the group on the topic — the only standing
// consumer in the suite: it holds a push session open (reopening with the
// session's own backoff when it dies, which is what a single broker's
// restart looks like; the partitioned session fails over inside itself),
// hands deliveries to handle one at a time in delivery order, and settles
// each by what handle returns. Members of one group share the partition, so
// calling Serve n times gives n-way concurrency without double delivery.
//
// The worker stops when srv — the server that gives the consumer tier its
// service identity — closes, so a replica the control plane scales down
// stops consuming with it, or earlier through Close. Whatever it was sent
// and has not settled by then goes back to the queue with its session.
func Serve(srv *rpc.Server, bus Bus, topic, group string, lease time.Duration, handle Handler) *Worker {
	ctx, stop := context.WithCancel(context.Background())
	// Settles outlive the session: an Ack for finished work issued on the
	// context that was just cancelled never leaves, and the work is redone.
	settle, expire := context.WithCancel(context.Background())
	w := &Worker{stop: stop, expire: expire, done: make(chan struct{})}
	srv.OnClose(w.Close)
	go func() {
		defer close(w.done)
		backoff := pushReopenBase
		for ctx.Err() == nil {
			d, err := bus.Push(ctx, topic, group, lease)
			if err != nil {
				backoff = pushSleep(ctx, backoff)
				continue
			}
			for ctx.Err() == nil {
				m, err := d.Next()
				if err != nil {
					break
				}
				backoff = pushReopenBase // a delivery proves the session healthy
				switch err := handle(ctx, m); {
				case err == nil:
					bus.Ack(settle, topic, group, m) //nolint:errcheck // a lost ack costs a redelivery
				case ctx.Err() == nil:
					bus.Nack(settle, topic, group, m) //nolint:errcheck // lease expiry redelivers anyway
					pause(ctx, nackPause)
				default:
					// Failed while stopping: no Nack. The message goes back with
					// the session, and a Nack racing that could return a lease
					// the broker has already handed to another member.
				}
			}
			d.Close()
			backoff = pushSleep(ctx, backoff)
		}
	}()
	return w
}

// Close stops the worker and returns once it has exited: the handler's
// context ends and the session closes, which returns every delivery the
// worker had not settled to the queue. Idempotent.
func (w *Worker) Close() {
	w.stop()
	t := time.AfterFunc(settleGrace, w.expire)
	<-w.done
	t.Stop()
	w.expire()
}
