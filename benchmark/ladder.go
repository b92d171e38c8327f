package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"dsb/internal/coalesce"
	"dsb/internal/codec"
	"dsb/internal/controlplane"
	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/kv"
	"dsb/internal/lb"
	"dsb/internal/mq"
	"dsb/internal/registry"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/shard"
	"dsb/internal/sqlstore"
	"dsb/internal/svcutil"
	"dsb/internal/trace"
	"dsb/internal/transport"
)

// The layer ladder: one rung per layer a request climbs, each calling the
// layer's exported API from here, outside the layer. A rung runs a fixed
// number of iterations (sized to about 50 ms on the reference machine) for
// ladderRounds rounds and reports the fastest round; _allocs is the exact
// runtime.MemStats.Mallocs delta per iteration of the leanest round. The
// ladder does not depend on the workload or the seed.

const ladderRounds = 4

// rung is one layer measurement.
type rung struct {
	// name is the metric stem: the rung reports <name>_ns and, when asked,
	// <name>_allocs and <name>_bytes.
	name          string
	iters         int
	allocs, bytes bool
	// prepare builds the fixture and returns run, which executes n
	// iterations and returns the time they took (so a rung can keep its own
	// preparation off the clock), and a cleanup.
	prepare func() (run func(n int) time.Duration, cleanup func(), err error)
}

// loop times n back-to-back calls of f.
func loop(f func(i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return time.Since(start)
	}
}

// must turns a failed call inside a rung into a panic that runLadder
// reports: every fixture is in-process, so only a bug gets here.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func nothing() {}

// runLadder measures every rung into out.
func runLadder(out map[string]float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ladder: %v", p)
		}
	}()
	for _, r := range ladder() {
		ns, allocs, byts := 0.0, 0.0, 0.0
		run, cleanup, perr := r.prepare()
		if perr != nil {
			// The environment refused the fixture (no loopback TCP): the rung
			// reads 0 and says why.
			fmt.Printf("ladder: %s skipped: %v\n", r.name, perr)
		} else {
			ns, allocs, byts = measureRung(r, run)
			cleanup()
		}
		out[r.name+"_ns"], out[r.name+"_allocs"], out[r.name+"_bytes"] = ns, allocs, byts
	}
	return nil
}

func measureRung(r rung, run func(n int) time.Duration) (ns, allocs, byts float64) {
	run(r.iters/8 + 1) // warm pools, caches and worker goroutines
	var m0, m1 runtime.MemStats
	for round := 0; round < ladderRounds; round++ {
		runtime.ReadMemStats(&m0)
		d := run(r.iters)
		runtime.ReadMemStats(&m1)
		n := float64(r.iters)
		if v := float64(d) / n; round == 0 || v < ns {
			ns = v
		}
		if v := float64(m1.Mallocs-m0.Mallocs) / n; round == 0 || v < allocs {
			allocs = v
		}
		if v := float64(m1.TotalAlloc-m0.TotalAlloc) / n; round == 0 || v < byts {
			byts = v
		}
	}
	return ns, allocs, byts
}

// ladderMessage mirrors the unregistered message of internal/codec's own
// benchmarks, so the reflect rungs are comparable with ROADMAP's spot
// numbers (Marshal 752 ns / 6 allocs, Unmarshal 776 ns / 9).
type ladderMessage struct {
	ID      uint64
	Kind    int32
	Text    string
	Media   []byte
	Tags    []string
	Ratings map[string]int64
	Nested  ladderInner
}

type ladderInner struct {
	Name  string
	Score float64
}

// ladderEcho mirrors internal/rpc's unregistered benchmark request.
type ladderEcho struct {
	Text string
	N    int64
}

// ladderItem mirrors internal/rest's benchmark item.
type ladderItem struct {
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Price float64 `json:"price"`
}

func samplePost() socialnetwork.Post {
	return socialnetwork.Post{
		ID: "00000192a1b2c3d4", Author: "user042",
		Text:     "post 0a1b2c by user042 hello @user007 see http://dsb.ly/0a1b2c3d4e",
		Mentions: []string{"user007"}, URLs: []string{"http://dsb.ly/0a1b2c3d4e"},
		CreatedAt: 1700000000000000000,
	}
}

func keys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// echoServer starts an rpc server with the three handler shapes the rungs
// call: Raw returns the payload untouched, Typed decodes a registered
// message and re-encodes it into a pooled reply (svcutil.Handle, the shape
// every application handler has), Untyped does the same for an unregistered
// struct through the reflect plans.
func echoServer(network rpc.Network, addr string) (string, *rpc.Server, error) {
	s := rpc.NewServer("ladder.echo")
	s.Handle("Raw", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return payload, nil })
	svcutil.Handle(s, "Typed", func(ctx *rpc.Ctx, req *kv.IncrResp) (*kv.IncrResp, error) { return req, nil })
	svcutil.Handle(s, "Untyped", func(ctx *rpc.Ctx, req *ladderEcho) (*ladderEcho, error) { return req, nil })
	s.Handle("Sink", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) { return nil, nil })
	s.HandleStream("Items", func(ctx *rpc.Ctx, payload []byte, st *rpc.ServerStream) error {
		var n kv.IncrResp
		if err := codec.Unmarshal(payload, &n); err != nil {
			return err
		}
		for i := int64(0); i < n.Value; i++ {
			if err := st.Send(payload); err != nil {
				return err
			}
		}
		return nil
	})
	got, err := s.Start(network, addr)
	return got, s, err
}

// rpcRung builds a rung around one client of a fresh echo server.
func rpcRung(name string, iters int, allocs bool, network func() rpc.Network, addr string, body func(c *rpc.Client) func(n int) time.Duration) rung {
	return rung{name: name, iters: iters, allocs: allocs, prepare: func() (func(int) time.Duration, func(), error) {
		n := network()
		got, s, err := echoServer(n, addr)
		if err != nil {
			return nil, nil, err
		}
		c := rpc.NewClient(n, "ladder.echo", got, rpc.WithPoolSize(1))
		return body(c), func() { c.Close(); s.Close() }, nil
	}}
}

func memNet() rpc.Network { return rpc.NewMem() }
func tcpNet() rpc.Network { return rpc.TCP{} }

// kvService starts a cache tier on a fresh in-memory network and returns a
// typed client to it, with n keys of 128 bytes set.
func kvService(n int) (svcutil.KV, []string, func()) {
	net := rpc.NewMem()
	cache := kv.New(64 << 20)
	s := rpc.NewServer("ladder.mc")
	kv.RegisterService(s, cache)
	addr, err := s.Start(net, "ladder.mc:1")
	must(err)
	ks := keys("key-", n)
	for _, k := range ks {
		cache.Set(k, make([]byte, 128), 0)
	}
	c := rpc.NewClient(net, "ladder.mc", addr)
	return svcutil.KV{C: c}, ks, func() { c.Close(); s.Close() }
}

// shardedApp boots a 2x2 sharded cache tier and a 2x2 sharded document
// store through the same wiring the applications use.
func shardedApp() (*core.App, svcutil.KV, svcutil.DB) {
	app := core.NewApp("ladder", core.Options{DisableTracing: true})
	st := &svcutil.Stack{App: app, Prefix: "ladder.", Shards: 2, ShardReplicas: 2, CacheBytes: 64 << 20}
	must(st.StartCaches("mc"))
	must(st.StartStores("db"))
	return app, st.KV("bench", "mc"), st.DB("bench", "db")
}

func ladder() []rung {
	ctx := context.Background()
	post := samplePost()
	msg := ladderMessage{
		ID: 42, Kind: -7, Text: "hello microservices benchmark payload",
		Media: bytes.Repeat([]byte{0xAB}, 256), Tags: []string{"social", "post", "media"},
		Ratings: map[string]int64{"a": 1, "b": 2}, Nested: ladderInner{"n", 2.5},
	}
	plain := func(name string, iters int, allocs bool, f func() func(i int)) rung {
		return rung{name: name, iters: iters, allocs: allocs, prepare: func() (func(int) time.Duration, func(), error) {
			return loop(f()), nothing, nil
		}}
	}
	doc := func(i int) docstore.Doc {
		return docstore.Doc{
			ID: "d" + strconv.Itoa(i%10000), Fields: map[string]string{"author": "u" + strconv.Itoa(i%100)},
			Nums: map[string]int64{"ts": int64(i)}, Body: make([]byte, 256),
		}
	}

	return []rung{
		// --- codec: generated marshalers vs the reflect plans.
		plain("codec.marshal_gen", 1000000, true, func() func(int) {
			buf := make([]byte, 0, 1024)
			return func(int) {
				var err error
				buf, err = codec.AppendMarshal(buf[:0], &post)
				must(err)
			}
		}),
		plain("codec.unmarshal_gen", 150000, false, func() func(int) {
			data, err := codec.Marshal(&post)
			must(err)
			return func(int) {
				var out socialnetwork.Post
				must(codec.Unmarshal(data, &out))
			}
		}),
		plain("codec.marshal_reflect", 60000, false, func() func(int) {
			buf := make([]byte, 0, 1024)
			return func(int) {
				var err error
				buf, err = codec.AppendMarshal(buf[:0], msg)
				must(err)
			}
		}),
		plain("codec.unmarshal_reflect", 60000, true, func() func(int) {
			in := msg
			in.Ratings, in.Nested = nil, ladderInner{}
			data, err := codec.Marshal(in)
			must(err)
			return func(int) {
				var out ladderMessage
				must(codec.Unmarshal(data, &out))
			}
		}),

		// --- rpc: one client, one server, one pooled connection.
		rpcRung("rpc.call_typed_mem", 10000, true, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			req, resp := kv.IncrResp{Value: 7}, kv.IncrResp{}
			return loop(func(int) { must(c.Call(ctx, "Typed", &req, &resp)) })
		}),
		rpcRung("rpc.call_untyped_mem", 8000, true, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			req := ladderEcho{Text: "benchmark payload of moderate size", N: 42}
			return loop(func(int) {
				var resp ladderEcho
				must(c.Call(ctx, "Untyped", req, &resp))
			})
		}),
		rpcRung("rpc.callraw_mem", 10000, false, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			payload := make([]byte, 64)
			return loop(func(int) {
				_, err := c.CallRaw(ctx, "Raw", payload)
				must(err)
			})
		}),
		rpcRung("rpc.call_typed_tcp", 2500, false, tcpNet, "127.0.0.1:0", func(c *rpc.Client) func(int) time.Duration {
			req, resp := kv.IncrResp{Value: 7}, kv.IncrResp{}
			return loop(func(int) { must(c.Call(ctx, "Typed", &req, &resp)) })
		}),
		rpcRung("rpc.call_16k_mem", 2500, false, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			payload := make([]byte, 16<<10)
			return loop(func(int) {
				_, err := c.CallRaw(ctx, "Raw", payload)
				must(err)
			})
		}),
		rpcRung("rpc.oneway_mem", 16000, false, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			req := kv.IncrResp{Value: 7}
			return func(n int) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					must(c.CallOneWay(ctx, "Sink", &req))
				}
				// One round trip behind the burst on the same connection:
				// the server has read every one-way frame when it answers.
				_, err := c.CallRaw(ctx, "Raw", nil)
				must(err)
				return time.Since(start)
			}
		}),
		rpcRung("rpc.go_pipelined32", 32*300, false, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			req := kv.IncrResp{Value: 7}
			var resps [32]kv.IncrResp
			var pending [32]*rpc.Pending
			return func(n int) time.Duration {
				start := time.Now()
				for done := 0; done < n; done += len(pending) {
					for i := range pending {
						pending[i] = c.Go(ctx, "Typed", &req, &resps[i])
					}
					for _, p := range pending {
						must(p.Wait())
					}
				}
				return time.Since(start)
			}
		}),
		rpcRung("rpc.stream_item", 30000, false, memNet, "ladder.echo:1", func(c *rpc.Client) func(int) time.Duration {
			return func(n int) time.Duration {
				start := time.Now()
				st, err := c.Stream(ctx, "Items", &kv.IncrResp{Value: int64(n)})
				must(err)
				for i := 0; i < n; i++ {
					must(st.Recv(nil))
				}
				st.Cancel()
				return time.Since(start)
			}
		}),

		// --- transport: the whole resilience bundle over a no-op terminal.
		plain("transport.chain", 15000, true, func() func(int) {
			res := transport.NewResilience()
			mws := append(res.Stack(), res.BackendMiddleware()...)
			invoke := transport.Build(func(context.Context, *transport.Call) error { return nil }, mws...)
			call := transport.NewCall("ladder", "Noop", nil)
			return func(int) { must(invoke(ctx, call)) }
		}),

		// --- lb: round robin over two replicas of the typed echo.
		{name: "lb.call", iters: 10000, allocs: true, prepare: func() (func(int) time.Duration, func(), error) {
			net := rpc.NewMem()
			a1, s1, err := echoServer(net, "ladder.echo:1")
			must(err)
			a2, s2, err := echoServer(net, "ladder.echo:2")
			must(err)
			bal := lb.New(net, "ladder.echo", []string{a1, a2}, &lb.RoundRobin{})
			req, resp := kv.IncrResp{Value: 7}, kv.IncrResp{}
			run := loop(func(int) { must(bal.Call(ctx, "Typed", &req, &resp)) })
			return run, func() { bal.Close(); s1.Close(); s2.Close() }, nil
		}},

		// --- registry: lookup among 32 services of 4 instances.
		plain("registry.lookup", 200000, false, func() func(int) {
			reg := registry.New()
			names := keys("svc-", 32)
			for _, n := range names {
				for i := 0; i < 4; i++ {
					reg.Register(n, n+":"+strconv.Itoa(i))
				}
			}
			return func(i int) {
				if len(reg.Lookup(names[i%len(names)])) != 4 {
					panic("registry: lookup lost instances")
				}
			}
		}),

		// --- rest: JSON over HTTP/1 on the in-memory network.
		{name: "rest.call_mem", iters: 1200, allocs: true, bytes: true, prepare: func() (func(int) time.Duration, func(), error) {
			net := rpc.NewMem()
			s := rest.NewServer("ladder.catalogue")
			item := ladderItem{ID: "bench", Name: "n", Price: 2}
			s.Handle("GET /items/{id}", func(ctx *rest.Ctx, body []byte) (any, error) { return item, nil })
			addr, err := s.Start(net, "ladder.catalogue:1")
			must(err)
			c := rest.NewClient(net, "ladder.catalogue", addr)
			run := loop(func(int) {
				var it ladderItem
				must(c.Do(ctx, "GET", "/items/bench", nil, &it))
			})
			return run, func() { c.Close(); s.Close() }, nil
		}},

		// --- svcutil over a cache tier: the cache-aside read path.
		{name: "svcutil.readpath_hit", iters: 8000, prepare: func() (func(int) time.Duration, func(), error) {
			mc, ks, stop := kvService(1000)
			rp := &svcutil.ReadPath[[]byte]{
				MC:     mc,
				Decode: func(b []byte) ([]byte, error) { return b, nil },
				Fetch: func(context.Context, string) ([]byte, []byte, bool, error) {
					panic("readpath: a cached key missed")
				},
			}
			run := loop(func(i int) {
				_, _, err := rp.Get(ctx, ks[i%len(ks)])
				must(err)
			})
			return run, stop, nil
		}},
		{name: "svcutil.readpath_miss", iters: 8000, prepare: func() (func(int) time.Duration, func(), error) {
			mc, _, stop := kvService(0)
			ks := keys("absent-", 1000)
			val := make([]byte, 128)
			rp := &svcutil.ReadPath[[]byte]{
				MC:     mc,
				Decode: func(b []byte) ([]byte, error) { return b, nil },
				// Found but not cacheable: every Get misses again, through
				// the coalescing group and the fetch, without a repopulate.
				Fetch: func(context.Context, string) ([]byte, []byte, bool, error) { return val, nil, true, nil },
			}
			run := loop(func(i int) {
				_, _, err := rp.Get(ctx, ks[i%len(ks)])
				must(err)
			})
			return run, stop, nil
		}},
		{name: "svcutil.kv_get", iters: 8000, prepare: func() (func(int) time.Duration, func(), error) {
			mc, ks, stop := kvService(1000)
			run := loop(func(i int) {
				_, found, err := mc.Get(ctx, ks[i%len(ks)])
				must(err)
				if !found {
					panic("kv: a set key missed")
				}
			})
			return run, stop, nil
		}},
		{name: "svcutil.kv_mget16", iters: 2500, prepare: func() (func(int) time.Duration, func(), error) {
			mc, ks, stop := kvService(1000)
			run := loop(func(i int) {
				at := i * 16 % (len(ks) - 16)
				got, err := mc.MGet(ctx, ks[at:at+16])
				must(err)
				if len(got) != 16 {
					panic("kv: MGet lost keys")
				}
			})
			return run, stop, nil
		}},

		// --- kv: the in-process cache.
		plain("kv.get", 1000000, true, func() func(int) {
			c := kv.New(64 << 20)
			ks := keys("key-", 1000)
			for _, k := range ks {
				c.Set(k, make([]byte, 128), 0)
			}
			return func(i int) { c.Get(ks[i%len(ks)]) }
		}),
		plain("kv.set", 1000000, false, func() func(int) {
			c := kv.New(64 << 20)
			ks := keys("key-", 4096)
			val := make([]byte, 128)
			return func(i int) { c.Set(ks[i%len(ks)], val, 0) }
		}),
		{name: "kv.get_2p", iters: 600000, prepare: func() (func(int) time.Duration, func(), error) {
			c := kv.New(64 << 20)
			ks := keys("key-", 1000)
			for _, k := range ks {
				c.Set(k, make([]byte, 128), 0)
			}
			// Two goroutines split the iterations: ns is wall time per Get.
			run := func(n int) time.Duration {
				done := make(chan struct{}, 2)
				start := time.Now()
				for g := 0; g < 2; g++ {
					go func(g int) {
						for i := g; i < n; i += 2 {
							c.Get(ks[i%len(ks)])
						}
						done <- struct{}{}
					}(g)
				}
				<-done
				<-done
				return time.Since(start)
			}
			return run, nothing, nil
		}},

		plain("coalesce.do", 300000, false, func() func(int) {
			var g coalesce.Group[int]
			fn := func(context.Context) (int, error) { return 1, nil }
			return func(int) {
				_, err := g.Do(ctx, "key", fn)
				must(err)
			}
		}),
		{name: "trace.span", iters: 60000, prepare: func() (func(int) time.Duration, func(), error) {
			store := trace.NewStore()
			col := trace.NewCollector(store, 1<<16)
			tr := trace.NewTracer(col)
			run := func(n int) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					tr.StartSpan("ladder", "Op", trace.KindServer, trace.SpanContext{}).Finish()
				}
				d := time.Since(start)
				col.Flush()
				store.Reset()
				return d
			}
			return run, col.Close, nil
		}},

		// --- shard: ring lookup and a routed call on a 2x2 layout.
		plain("shard.owner", 800000, false, func() func(int) {
			ring := shard.NewRing(128, shard.Labels(4))
			ks := keys("tl:user", 1000)
			return func(i int) {
				if ring.Owner(ks[i%len(ks)]) == "" {
					panic("shard: empty ring")
				}
			}
		}),
		{name: "shard.call", iters: 8000, prepare: func() (func(int) time.Duration, func(), error) {
			app, mc, _ := shardedApp()
			ks := keys("key-", 1000)
			run := loop(func(i int) {
				var resp kv.GetResp
				k := ks[i%len(ks)]
				must(mc.Shards.Route(k)[0].Call(ctx, "Get", kv.GetReq{Key: k}, &resp))
			})
			return run, func() { app.Close() }, nil
		}},
		{name: "svcutil.kv_set_sharded", iters: 4000, prepare: func() (func(int) time.Duration, func(), error) {
			app, mc, _ := shardedApp()
			ks := keys("key-", 1000)
			val := make([]byte, 128)
			run := loop(func(i int) { must(mc.Set(ctx, ks[i%len(ks)], val, 0)) })
			return run, func() { app.Close() }, nil
		}},
		{name: "svcutil.db_put", iters: 3500, prepare: func() (func(int) time.Duration, func(), error) {
			net := rpc.NewMem()
			s := rpc.NewServer("ladder.db")
			docstore.RegisterService(s, docstore.NewStore())
			addr, err := s.Start(net, "ladder.db:1")
			must(err)
			c := rpc.NewClient(net, "ladder.db", addr)
			db := svcutil.DB{C: c}
			run := loop(func(i int) { must(db.Put(ctx, "bench", doc(i))) })
			return run, func() { c.Close(); s.Close() }, nil
		}},
		{name: "svcutil.db_put_sharded", iters: 1800, prepare: func() (func(int) time.Duration, func(), error) {
			app, _, db := shardedApp()
			run := loop(func(i int) { must(db.Put(ctx, "bench", doc(i))) })
			return run, func() { app.Close() }, nil
		}},

		// --- docstore: the in-process collection.
		plain("docstore.put", 4000, false, func() func(int) {
			c := docstore.NewStore().Collection("bench")
			return func(i int) { must(c.Put(doc(i))) }
		}),
		plain("docstore.get", 60000, false, func() func(int) {
			c := docstore.NewStore().Collection("bench")
			for i := 0; i < 10000; i++ {
				must(c.Put(doc(i)))
			}
			ids := keys("d", 10000)
			return func(i int) {
				if _, ok := c.Get(ids[i%len(ids)]); !ok {
					panic("docstore: a stored document is missing")
				}
			}
		}),
		plain("docstore.find", 2500, false, func() func(int) {
			c := docstore.NewStore().Collection("bench")
			for i := 0; i < 10000; i++ {
				must(c.Put(doc(i)))
			}
			authors := keys("u", 100)
			return func(i int) {
				if len(c.Find("author", authors[i%len(authors)], 10)) != 10 {
					panic("docstore: Find lost documents")
				}
			}
		}),
		plain("docstore.list_prepend_len10", 30000, false, func() func(int) {
			c := docstore.NewStore().Collection("bench")
			return func(i int) {
				_, err := c.ListPrepend("tl:user", "00000192a1b2c3d4", 10)
				must(err)
			}
		}),
		plain("docstore.list_prepend_len1000", 400, false, func() func(int) {
			c := docstore.NewStore().Collection("bench")
			for i := 0; i < 1000; i++ {
				_, err := c.ListPrepend("tl:user", "00000192a1b2c3d4", 1000)
				must(err)
			}
			return func(i int) {
				_, err := c.ListPrepend("tl:user", "00000192a1b2c3d4", 1000)
				must(err)
			}
		}),
		plain("svcutil.parallel16", 14000, false, func() func(int) {
			fn := func(int) error { return nil }
			return func(int) { must(svcutil.Parallel(8, 16, fn)) }
		}),

		// --- mq: in process, then served over rpc.
		plain("mq.publish_receive_ack", 150000, true, func() func(int) {
			q := mq.NewBroker().Queue("bench")
			body := make([]byte, 128)
			return func(int) {
				_, err := q.Publish(body)
				must(err)
				msg, ok := q.TryReceive(time.Minute)
				if !ok {
					panic("mq: a published message was not received")
				}
				q.Ack(msg.ID)
			}
		}),
		mqRung("mq.rpc_publish", 6000, func(bus mq.Client, n int) time.Duration {
			body := make([]byte, 128)
			start := time.Now()
			for i := 0; i < n; i++ {
				_, err := bus.Publish(ctx, "orders", body)
				must(err)
			}
			d := time.Since(start)
			drainTopic(bus, n)
			return d
		}),
		mqRung("mq.rpc_consume_ack", 4000, func(bus mq.Client, n int) time.Duration {
			fillTopic(bus, n)
			start := time.Now()
			drainTopic(bus, n)
			return time.Since(start)
		}),
		mqRung("mq.push_deliver", 4000, func(bus mq.Client, n int) time.Duration {
			fillTopic(bus, n)
			start := time.Now()
			d, err := bus.Push(ctx, "orders", "commit", time.Minute)
			must(err)
			for i := 0; i < n; i++ {
				msg, err := d.Next()
				must(err)
				must(bus.Ack(ctx, "orders", "commit", msg))
			}
			elapsed := time.Since(start)
			d.Close()
			return elapsed
		}),

		// --- sqlstore and the admission controller: on no workload's path
		// today; they guard against paying for the others there.
		{name: "sqlstore.insert", iters: 40000, prepare: func() (func(int) time.Duration, func(), error) {
			ids, genres := keys("m", 40000), keys("g", 8)
			// A fresh table per round, built off the clock: keys are unique.
			run := func(n int) time.Duration {
				db := sqlstore.NewDB()
				must(db.CreateTable(ladderSchema))
				return loop(func(i int) {
					must(db.Insert("movies", sqlstore.Row{"id": ids[i], "genre": genres[i%8]}))
				})(n)
			}
			return run, nothing, nil
		}},
		plain("sqlstore.select", 2500, false, func() func(int) {
			db := sqlstore.NewDB()
			must(db.CreateTable(ladderSchema))
			genres := keys("g", 100)
			for i, id := range keys("m", 10000) {
				must(db.Insert("movies", sqlstore.Row{"id": id, "genre": genres[i%100]}))
			}
			return func(i int) {
				rows, err := db.Select("movies", "genre", genres[i%100], 10)
				must(err)
				if len(rows) != 10 {
					panic("sqlstore: Select lost rows")
				}
			}
		}),
		plain("controlplane.admit", 50000, false, func() func(int) {
			a := controlplane.NewAdmission(controlplane.AdmissionConfig{MaxConcurrent: 8})
			return func(int) {
				release, err := a.Admit(ctx)
				must(err)
				release()
			}
		}),
	}
}

var ladderSchema = sqlstore.Schema{
	Name: "movies", PrimaryKey: "id",
	Columns: []string{"id", "title", "year", "genre"}, Indexed: []string{"genre"},
}

// mqRung builds a rung around a typed client of a broker served over rpc,
// with the topic "orders" fanning out to the one group "commit".
func mqRung(name string, iters int, body func(bus mq.Client, n int) time.Duration) rung {
	return rung{name: name, iters: iters, prepare: func() (func(int) time.Duration, func(), error) {
		net := rpc.NewMem()
		broker := mq.NewBroker()
		broker.Topic("orders").Subscribe("commit")
		s := rpc.NewServer("ladder.broker")
		mq.RegisterService(s, broker)
		addr, err := s.Start(net, "ladder.broker:1")
		must(err)
		c := rpc.NewClient(net, "ladder.broker", addr)
		bus := mq.Client{C: c}
		return func(n int) time.Duration { return body(bus, n) }, func() { c.Close(); s.Close() }, nil
	}}
}

func fillTopic(bus mq.Client, n int) {
	body := make([]byte, 128)
	for i := 0; i < n; i++ {
		_, err := bus.Publish(context.Background(), "orders", body)
		must(err)
	}
}

func drainTopic(bus mq.Client, n int) {
	ctx := context.Background()
	for i := 0; i < n; i++ {
		msg, err := bus.Consume(ctx, "orders", "commit", time.Minute, time.Second)
		must(err)
		if !msg.OK {
			panic("mq: a published message was not delivered")
		}
		must(bus.Ack(ctx, "orders", "commit", msg))
	}
}
