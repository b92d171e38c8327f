package svcutil

import (
	"context"
	"sync"
	"time"

	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/shard"
	"dsb/internal/transport"
)

// LayoutConfig is the deployment layout every app's Config embeds: how the
// app's store and cache tiers are sharded and replicated, and the
// middleware on its inter-tier wires. The zero value is the 1 × 1 layout.
// The broker tier's layout is the Stack's BrokerShards and BrokerReplicas,
// which only the social network's Config exposes.
type LayoutConfig struct {
	// Shards partitions every store and cache tier into this many
	// consistent-hash shard groups (default 1).
	Shards int
	// ShardReplicas is the replica count per store or cache shard group
	// (default 1). Replicas converge by write-all and read-repair (see
	// sharded.go).
	ShardReplicas int
	// Middleware is installed on every inter-tier client wire, between
	// tracing and the app's resilience stack: fault injection and
	// per-experiment instrumentation hook in here.
	Middleware []transport.Middleware
}

// Stack builds the Stack an app boots on: its tiers named under prefix,
// laid out as l says, with replicable naming the logic tiers it may clone.
func (l LayoutConfig) Stack(app *core.App, prefix string, replicable map[string]bool) *Stack {
	return &Stack{
		App:           app,
		Prefix:        prefix,
		Shards:        l.Shards,
		ShardReplicas: l.ShardReplicas,
		Middleware:    l.Middleware,
		Replicable:    replicable,
	}
}

// Stack is the shared deployment wiring every application in the suite boots
// through, built from the app's LayoutConfig. It exposes the small
// vocabulary the constructors are written in: StartStores / StartCaches /
// StartBroker for the stateful tiers, which always boot as shard groups,
// Start for logic tiers, Caller for a load-balanced logic-tier client, and
// Router / DB / KV / MQ for the stateful tiers, whose clients always route
// through a shard.Router, so an app runs the same client code in every
// layout. Start boots one replica of every tier and Defines every
// Replicable one on the App, so App.Spawn — the control plane's lever — is
// the only way a tier gets another replica.
type Stack struct {
	// App is the composition root every tier boots on and every client is
	// wired through.
	App *core.App
	// Prefix namespaces every service this stack boots ("social.", "media.").
	Prefix string
	// The store and cache layout and the wire middleware, copied from
	// LayoutConfig (see its fields). Only benchmark/ladder.go still sets
	// Shards, ShardReplicas and CacheBytes in a Stack literal; the first
	// change to benchmark/ builds that Stack with LayoutConfig.Stack too.
	Shards        int
	ShardReplicas int
	Middleware    []transport.Middleware
	// BrokerShards partitions the broker tier into this many consistent-hash
	// shard groups (default 1): topics are partitioned by message key, so
	// one hot topic spreads across all of them.
	BrokerShards int
	// BrokerReplicas is the replica count per broker shard group (default
	// 1). Every publish is mirrored to the group's other replicas before it
	// is acked, so un-acked messages survive a broker crash: when the ring
	// evicts the dead instance, consumers fail over and leased-but-unacked
	// messages redeliver from a mirror.
	BrokerReplicas int
	// CacheBytes bounds each cache tier booted by StartCaches (0 = unbounded).
	CacheBytes int64
	// Replicable names the logic tiers safe to run multi-instance (state
	// external). Tiers absent from the set can never be spawned.
	Replicable map[string]bool

	boot []func() error

	mu        sync.Mutex
	consumers []*mq.Worker
}

// Name returns the fully-qualified service name for a tier.
func (st *Stack) Name(tier string) string { return st.Prefix + tier }

// StartStores boots one document-store tier per name as Shards×
// ShardReplicas instances under the one service name (1×1 by default), every
// (shard, replica) pair owning a *fresh* store — replicas converge only
// through write-all and read-repair — with the shard index in registry
// metadata for the routers.
func (st *Stack) StartStores(names ...string) error {
	return st.startShardGroups(names, func() func(*rpc.Server) {
		store := docstore.NewStore()
		return func(s *rpc.Server) { docstore.RegisterService(s, store) }
	})
}

// StartCaches boots one kv cache tier per name, sharded exactly like
// StartStores.
func (st *Stack) StartCaches(names ...string) error {
	return st.startShardGroups(names, func() func(*rpc.Server) {
		cache := kv.New(st.CacheBytes)
		return func(s *rpc.Server) { kv.RegisterService(s, cache) }
	})
}

// startShardGroups boots each named tier as Shards×ShardReplicas instances,
// every one registered by a fresh call of register.
func (st *Stack) startShardGroups(names []string, register func() func(*rpc.Server)) error {
	for _, name := range names {
		if err := StartShardReplicas(st.App, st.Name(name), st.Shards, st.ShardReplicas, register); err != nil {
			return err
		}
	}
	return nil
}

// StartBroker queues a message-broker tier for boot, serving the mq RPC
// interface under the stack's prefix as BrokerShards×BrokerReplicas
// instances under shard.MetaShard labels (1×1 by default) — topics
// partitioned by message key across shards, each shard's group queues
// mirrored across its replicas (see mq.Partitioned for the
// publish/mirror/failover contract). configure — where topics are declared
// and consumer groups subscribed — runs per broker instance at boot time,
// before any producer or consumer tier starts; running it on every
// instance is what lets mirrors accept copies for the same groups their
// primaries fan out to. The returned Cluster is the composition root's
// white-box handle (aggregate lag, drain loops); instances register on it
// as they boot.
func (st *Stack) StartBroker(name string, configure func(*mq.Broker)) *mq.Cluster {
	cluster := mq.NewCluster()
	st.boot = append(st.boot, func() error {
		return StartShardReplicas(st.App, st.Name(name), st.BrokerShards, st.BrokerReplicas, func() func(*rpc.Server) {
			broker := mq.NewBroker()
			if configure != nil {
				configure(broker)
			}
			cluster.Add(broker)
			return func(s *rpc.Server) { mq.RegisterService(s, broker) }
		})
	})
	return cluster
}

// MQ builds a typed broker client from one tier to the broker tier: a
// Partitioned client over the broker's shard router, which publishes to
// each key's group primary and mirrors, and acks one-way.
func (st *Stack) MQ(caller, target string) *mq.Partitioned {
	return mq.NewPartitioned(st.Router(caller, target))
}

// Serve starts one mq.Serve worker for a consumer tier's replica on srv and
// records it for StopConsumers. The worker also stops with srv, so a
// replica the control plane spawns at runtime is covered either way.
func (st *Stack) Serve(srv *rpc.Server, bus *mq.Partitioned, topic, group string, lease time.Duration, handle mq.Handler) {
	w := mq.Serve(srv, bus, topic, group, lease, handle)
	st.mu.Lock()
	st.consumers = append(st.consumers, w)
	st.mu.Unlock()
}

// StopConsumers stops every worker Serve started and waits for them to
// exit, leaving the rest of the deployment up — the body of each app's
// Close. Idempotent.
func (st *Stack) StopConsumers() {
	st.mu.Lock()
	consumers := st.consumers
	st.consumers = nil
	st.mu.Unlock()
	for _, w := range consumers {
		w.Close()
	}
}

// Caller builds a load-balanced client from one tier to a logic tier. Wiring
// errors panic: they are deterministic composition bugs (a typo'd service
// name), not runtime conditions, and every constructor treated them that way
// before the extraction.
func (st *Stack) Caller(caller, target string) Caller {
	c, err := st.App.RPC(st.Name(caller), st.Name(target), st.Middleware...)
	if err != nil {
		panic(err)
	}
	return c
}

// Router builds a shard router from one tier to a tier booted as shard
// groups, for a caller that routes by key or scatters over every group
// itself. Wiring errors panic, as in Caller.
func (st *Stack) Router(caller, target string) *shard.Router {
	router, err := st.App.ShardedRPC(st.Name(caller), st.Name(target), st.Middleware...)
	if err != nil {
		panic(err)
	}
	return router
}

// DB wires a service to a document-store tier through a shard router, which
// routes each document to its owning replica group in every layout, 1 × 1
// included.
func (st *Stack) DB(caller, target string) DB {
	return DB{Shards: st.Router(caller, target)}
}

// KV is the cache-tier counterpart of DB.
func (st *Stack) KV(caller, target string) KV {
	return KV{Shards: st.Router(caller, target)}
}

// Start queues a logic tier for boot: one replica. A tier in Replicable is
// Defined on the App and its replica Spawned, so the control plane — or a
// deployment that wants more replicas, after New — can scale it with
// App.Spawn; any other tier can never be cloned.
func (st *Stack) Start(name string, register func(*rpc.Server)) {
	full := st.Name(name)
	st.boot = append(st.boot, func() error {
		if !st.Replicable[name] {
			_, err := st.App.StartRPC(full, register)
			return err
		}
		st.App.Define(full, register)
		_, err := st.App.Spawn(full)
		return err
	})
}

// Boot runs the queued tier boots in the order they were declared (the
// declaration order must respect the dependency graph so every client
// resolves) and clears the queue.
func (st *Stack) Boot() error {
	for _, b := range st.boot {
		if err := b(); err != nil {
			return err
		}
	}
	st.boot = nil
	return nil
}

// NonCriticalBudget bounds each call to a degradable downstream. Without a
// bound, a *partitioned* (as opposed to fast-failing) tier would hang the
// call until the request's whole deadline expired, so the degraded fallback
// would always arrive too late for the caller; with it, a hung hop costs at
// most this much before the fallback is served. Normal in-process calls
// finish in microseconds, so the budget only bites when the hop is genuinely
// sick.
const NonCriticalBudget = 40 * time.Millisecond

// CallBounded invokes a degradable downstream under NonCriticalBudget.
func CallBounded(ctx context.Context, c Caller, method string, req, resp any) error {
	bctx, cancel := context.WithTimeout(ctx, NonCriticalBudget)
	defer cancel()
	return c.Call(bctx, method, req, resp)
}
