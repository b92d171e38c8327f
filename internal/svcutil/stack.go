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

// Stack is the shared deployment wiring every application in the suite boots
// through. It holds the knobs that used to be copy-pasted into each app's
// constructor — shard/replica counts for the storage tiers, cache sizing,
// per-wire middleware — and exposes the small vocabulary the constructors
// are written in: StartStores / StartCaches / StartBroker for the stateful
// tiers, which always boot as shard groups, Start for logic tiers, and
// Caller / DB / KV / MQ / Router for clients, the typed ones picking
// load-balanced or shard-routed mode to match the layout. Start boots one
// replica of every tier and Defines every Replicable one on the App, so
// App.Spawn — the control plane's lever — is the only way a tier gets
// another replica.
type Stack struct {
	// App is the composition root every tier boots on and every client is
	// wired through.
	App *core.App
	// Prefix namespaces every service this stack boots ("social.", "media.").
	Prefix string
	// Shards partitions every store/cache tier into this many consistent-hash
	// shards (default 1 = single-instance layout).
	Shards int
	// ShardReplicas is the replica count per storage shard (default 1).
	// Replicas converge by write-all and read-repair (see sharded.go).
	ShardReplicas int
	// CacheBytes bounds each cache tier booted by StartCaches (0 = unbounded).
	CacheBytes int64
	// Middleware is installed on every inter-tier client wire.
	Middleware []transport.Middleware
	// Replicable names the logic tiers safe to run multi-instance (state
	// external). Tiers absent from the set can never be spawned.
	Replicable map[string]bool
	// BrokerShards partitions the broker tier booted by StartBroker into this
	// many consistent-hash shards — topics are partitioned by message key, so
	// one hot topic spreads across all of them (default 1 = single instance).
	BrokerShards int
	// BrokerReplicas is the replica count per broker shard (default 1).
	// Above 1, every publish is mirrored to the shard's other replicas before
	// it is acked, so un-acked messages survive a broker crash.
	BrokerReplicas int

	boot []func() error

	mu        sync.Mutex
	consumers []*mq.Worker
}

// Sharded reports whether the storage tiers run more than one instance each.
func (st *Stack) Sharded() bool { return st.Shards > 1 || st.ShardReplicas > 1 }

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

// BrokerSharded reports whether the broker tier runs partitioned/replicated.
func (st *Stack) BrokerSharded() bool { return st.BrokerShards > 1 || st.BrokerReplicas > 1 }

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

// MQ builds a typed broker client from one tier to the broker tier, in
// whichever mode the deployment runs: a single-instance Client, or a
// Partitioned client over the broker shard router. Acks ride the one-way
// fast path automatically when the underlying wire supports it.
func (st *Stack) MQ(caller, target string) mq.Bus {
	if !st.BrokerSharded() {
		return mq.Client{C: st.Caller(caller, target)}
	}
	return mq.NewPartitioned(st.Router(caller, target))
}

// Serve starts one mq.Serve worker for a consumer tier's replica on srv and
// records it for StopConsumers. The worker also stops with srv, so a
// replica the control plane spawns at runtime is covered either way.
func (st *Stack) Serve(srv *rpc.Server, bus mq.Bus, topic, group string, lease time.Duration, handle mq.Handler) {
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

// Caller builds a load-balanced client from one tier to another. Wiring
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

// DB wires a service to a document-store tier in whichever mode the
// deployment runs: a load-balanced caller for the single-instance layout, a
// consistent-hash shard router for the sharded one. The typed client keeps
// one method surface either way, so services never know which layout they
// run on.
func (st *Stack) DB(caller, target string) DB {
	if !st.Sharded() {
		return DB{C: st.Caller(caller, target)}
	}
	return DB{Shards: st.Router(caller, target)}
}

// KV is the cache-tier counterpart of DB.
func (st *Stack) KV(caller, target string) KV {
	if !st.Sharded() {
		return KV{C: st.Caller(caller, target).(RawCaller)}
	}
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
