package socialnetwork

import (
	"time"

	"dsb/internal/core"
	"dsb/internal/mq"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// cacheBytes bounds each cache tier.
const cacheBytes = 64 << 20

// Config sizes the deployment.
type Config struct {
	// SearchShards is the number of shard groups the search-index tier
	// boots as (default 3).
	SearchShards int
	// Middleware is installed on every inter-tier client wire (between
	// tracing and the app's resilience stack): fault injection and
	// per-experiment instrumentation hook in here.
	Middleware []transport.Middleware
	// DisableDegradation turns off graceful degradation: readTimeline and
	// composePost fail hard when a non-critical downstream (post hydration,
	// block list, search index) is unreachable, instead of serving a
	// Degraded response. Used by the chaos experiment's unprotected arm.
	DisableDegradation bool
	// FanoutWorkers bounds writeTimeline's parallel push to follower
	// timelines (default 8). 1 reproduces the old sequential fan-out — the
	// hotpath experiment's contrast arm.
	FanoutWorkers int
	// AsyncFanout moves the follower fan-out off the compose write path:
	// writeTimeline publishes a FanoutEvent to the broker tier and returns
	// at broker ack; the "fanout" consumer-group tier hydrates follower
	// timelines behind the write. Authors still read their own writes
	// synchronously; followers converge within the group's drain time
	// (bounded by DrainFanout in tests). The fanout tier boots one
	// consumer; App.Spawn("social.fanout") adds more.
	AsyncFanout bool
	// BrokerShards partitions the broker tier into this many instances
	// (default 1): each topic's traffic spreads across shards by message
	// key, and publishers/consumers route per key through the shard ring.
	BrokerShards int
	// BrokerReplicas is the replica count per broker shard (default 1).
	// With BrokerReplicas > 1 every publish is mirrored to the shard's
	// sibling brokers before it is acked, so un-acked messages survive a
	// broker crash: when the ring evicts the dead instance, consumers fail
	// over and leased-but-unacked messages redeliver from a mirror.
	BrokerReplicas int
	// DisableCoalescing turns off miss coalescing on the cache-aside read
	// paths (timelines, posts, profiles), so every concurrent miss becomes
	// its own backing-store read. Used by the hotpath experiment's
	// stampede arm.
	DisableCoalescing bool
	// Shards partitions every db/mc storage tier into this many
	// consistent-hash shards (default 1 = the single-instance layout).
	// The stores always boot through svcutil.StartShardReplicas — each
	// shard replica carries its shard index in registry metadata — and with
	// Shards > 1 or ShardReplicas > 1 services reach them through shard
	// routers instead of load balancers, routing each key to its owning
	// replica set.
	Shards int
	// ShardReplicas is the replica count per storage shard (default 1).
	// Replicas converge by write-all and read-repair (see svcutil).
	ShardReplicas int
}

// replicable names the logic tiers that are safe to run multi-instance:
// their state is external (document stores, caches). Store, cache and
// search-index tiers hold per-instance state, and uniqueID's worker number
// is its identity, so they stay out of this set and can never be cloned.
var replicable = map[string]bool{
	"user": true, "urlShorten": true, "userTag": true,
	"text": true, "media": true, "socialGraph": true, "blockedUsers": true,
	"postStorage": true, "readPost": true, "writeTimeline": true,
	"readTimeline": true, "search": true, "ads": true, "recommender": true,
	"favorite": true, "composePost": true,
	// fanout replicas are members of one broker consumer group — they share
	// the partition, so scaling the tier out never double-delivers.
	"fanout": true,
}

// SocialNetwork is a running deployment: the REST front door plus direct
// RPC clients for tests and load generators.
type SocialNetwork struct {
	App      *core.App
	Frontend *rest.Client

	// Direct tier clients, exposed for tests and benchmarks.
	Compose      svcutil.Caller
	ReadTimeline svcutil.Caller
	User         svcutil.Caller
	Graph        svcutil.Caller
	Search       svcutil.Caller

	// Broker is the message-broker tier behind async fan-out (nil unless
	// Config.AsyncFanout); exported so tests and experiments can read
	// backlog stats directly across every broker instance.
	Broker *mq.Cluster

	stack *svcutil.Stack
}

// DrainFanout blocks until the fanout consumer group's backlog reaches
// zero — every published timeline event delivered and settled — or the
// timeout elapses. This is the read-your-writes grace bound deterministic
// tests use before asserting follower-visible state. A nil-broker (sync
// fan-out) deployment drains trivially.
func (sn *SocialNetwork) DrainFanout(timeout time.Duration) error {
	return sn.Broker.Drain(timelineTopic, fanoutGroup, timeout)
}

// Close stops the fanout consumer replicas and leaves the rest of the
// deployment up; closing the app stops them too. Synchronous deployments
// have none and close trivially.
func (sn *SocialNetwork) Close() { sn.stack.StopConsumers() }

// New boots the full Social Network on the given app: storage tiers first,
// then leaf services, then orchestrators, then the front door.
func New(app *core.App, cfg Config) (*SocialNetwork, error) {
	if cfg.SearchShards <= 0 {
		cfg.SearchShards = 3
	}

	// All deployment wiring — sharded storage boots, load-balanced vs.
	// shard-routed clients — goes through the shared Stack, the same layout
	// vocabulary every app in the suite uses.
	stack := &svcutil.Stack{
		App:            app,
		Prefix:         "social.",
		Shards:         cfg.Shards,
		ShardReplicas:  cfg.ShardReplicas,
		BrokerShards:   cfg.BrokerShards,
		BrokerReplicas: cfg.BrokerReplicas,
		CacheBytes:     cacheBytes,
		Middleware:     cfg.Middleware,
		Replicable:     replicable,
	}

	// Storage tiers: one cache and/or document store per backend group,
	// each its own microservice, as in Figure 4. Each backend group is
	// Shards×ShardReplicas instances under the same service name — every
	// (shard, replica) pair owns a *fresh* store, since replicas converge
	// only through write-all and read-repair.
	if err := stack.StartStores("db-posts", "db-timeline", "db-graph", "db-users", "db-urls", "db-media", "db-favorites"); err != nil {
		return nil, err
	}
	if err := stack.StartCaches("mc-posts", "mc-timeline", "mc-users", "mc-urls", "mc-favorites"); err != nil {
		return nil, err
	}
	// The search index (index0..n in Figure 4): SearchShards shard groups of
	// one service, each its own partition, routed by post ID.
	if err := svcutil.StartShardReplicas(app, "social.search-index", cfg.SearchShards, 1, func() func(*rpc.Server) {
		return registerSearchShard
	}); err != nil {
		return nil, err
	}

	degrade := !cfg.DisableDegradation
	sn := &SocialNetwork{App: app, stack: stack}

	cl, db, mc := stack.Caller, stack.DB, stack.KV
	// Boot order respects the dependency graph, so every client resolves.
	start := stack.Start

	// One unique-ID worker, number 1: a second would need a number of its
	// own, so the tier is not replicable.
	start("uniqueID", func(s *rpc.Server) { registerUniqueID(s, 1) })
	start("user", func(s *rpc.Server) {
		registerUser(s, db("user", "db-users"), mc("user", "mc-users"), cfg.DisableCoalescing)
	})
	start("urlShorten", func(s *rpc.Server) {
		registerURLShorten(s, db("urlShorten", "db-urls"), mc("urlShorten", "mc-urls"))
	})
	start("userTag", func(s *rpc.Server) {
		registerUserTag(s, cl("userTag", "user"))
	})
	start("text", func(s *rpc.Server) {
		registerText(s, cl("text", "urlShorten"), cl("text", "userTag"))
	})
	start("media", func(s *rpc.Server) {
		registerMedia(s, db("media", "db-media"), cl("media", "uniqueID"))
	})
	start("socialGraph", func(s *rpc.Server) {
		registerSocialGraph(s, db("socialGraph", "db-graph"), cl("socialGraph", "user"))
	})
	start("blockedUsers", func(s *rpc.Server) {
		registerBlockedUsers(s, db("blockedUsers", "db-graph"))
	})
	start("postStorage", func(s *rpc.Server) {
		registerPostStorage(s, db("postStorage", "db-posts"), mc("postStorage", "mc-posts"), cfg.DisableCoalescing)
	})
	start("readPost", func(s *rpc.Server) {
		registerReadPost(s, cl("readPost", "postStorage"))
	})
	// The broker tier boots just before writeTimeline when fan-out is
	// async: its configure hook declares the timeline topic and subscribes
	// the fanout group, so no publish misses the group.
	if cfg.AsyncFanout {
		sn.Broker = stack.StartBroker("broker", ConfigureTimelineBroker)
	}
	start("writeTimeline", func(s *rpc.Server) {
		var bus mq.Bus
		if cfg.AsyncFanout {
			bus = stack.MQ("writeTimeline", "broker")
		}
		registerWriteTimeline(s, cl("writeTimeline", "socialGraph"),
			db("writeTimeline", "db-timeline"),
			mc("writeTimeline", "mc-timeline"),
			cfg.FanoutWorkers, bus)
	})
	if cfg.AsyncFanout {
		start("fanout", func(s *rpc.Server) {
			fc := newFanoutConsumer(cl("fanout", "socialGraph"),
				db("fanout", "db-timeline"), mc("fanout", "mc-timeline"), cfg.FanoutWorkers)
			stack.Serve(s, stack.MQ("fanout", "broker"), timelineTopic, fanoutGroup, fanoutLease, fc.deliver)
		})
	}
	start("readTimeline", func(s *rpc.Server) {
		registerReadTimeline(s,
			db("readTimeline", "db-timeline"),
			mc("readTimeline", "mc-timeline"),
			cl("readTimeline", "readPost").(svcutil.RawCaller), cl("readTimeline", "blockedUsers"),
			degrade, cfg.DisableCoalescing)
	})
	start("search", func(s *rpc.Server) {
		registerSearch(s, stack.Router("search", "search-index"))
	})
	start("ads", func(s *rpc.Server) { registerAds(s, nil) })
	start("recommender", func(s *rpc.Server) {
		registerRecommender(s, cl("recommender", "socialGraph"))
	})
	start("favorite", func(s *rpc.Server) {
		registerFavorite(s, db("favorite", "db-favorites"), mc("favorite", "mc-favorites"))
	})
	start("composePost", func(s *rpc.Server) {
		registerComposePost(s, composeDeps{
			user:     cl("composePost", "user"),
			uniqueID: cl("composePost", "uniqueID"),
			text:     cl("composePost", "text"),
			media:    cl("composePost", "media"),
			storage:  cl("composePost", "postStorage"),
			timeline: cl("composePost", "writeTimeline"),
			search:   cl("composePost", "search"),
			readPost: cl("composePost", "readPost"),
		}, degrade)
	})
	if err := stack.Boot(); err != nil {
		return nil, err
	}

	// Front door (nginx tier).
	if _, err := app.StartREST("social.frontend", func(s *rest.Server) {
		registerFrontend(s, frontendDeps{
			compose:      cl("frontend", "composePost"),
			readTimeline: cl("frontend", "readTimeline").(svcutil.RawCaller),
			readPost:     cl("frontend", "readPost"),
			user:         cl("frontend", "user"),
			graph:        cl("frontend", "socialGraph"),
			blocked:      cl("frontend", "blockedUsers"),
			search:       cl("frontend", "search"),
			ads:          cl("frontend", "ads"),
			recommender:  cl("frontend", "recommender"),
			favorite:     cl("frontend", "favorite"),
		})
	}); err != nil {
		return nil, err
	}

	var err error
	if sn.Frontend, err = app.REST("client", "social.frontend"); err != nil {
		return nil, err
	}
	if sn.Compose, err = app.RPC("client", "social.composePost"); err != nil {
		return nil, err
	}
	if sn.ReadTimeline, err = app.RPC("client", "social.readTimeline"); err != nil {
		return nil, err
	}
	if sn.User, err = app.RPC("client", "social.user"); err != nil {
		return nil, err
	}
	if sn.Graph, err = app.RPC("client", "social.socialGraph"); err != nil {
		return nil, err
	}
	if sn.Search, err = app.RPC("client", "social.search"); err != nil {
		return nil, err
	}
	return sn, nil
}
