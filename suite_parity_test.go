package dsb_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/services/banking"
	"dsb/internal/services/ecommerce"
	"dsb/internal/services/media"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/services/swarm"
	"dsb/internal/shard"
	"dsb/internal/svcutil"
	"dsb/internal/vtime"
)

const parityLeaseTTL = 150 * time.Millisecond

// parityLayouts are the layouts every app is probed at: the default 1 × 1,
// and 2 × 2, where writes go to two replicas and reads repair.
var parityLayouts = []svcutil.LayoutConfig{
	{Shards: 1, ShardReplicas: 1},
	{Shards: 2, ShardReplicas: 2},
}

// TestSuiteParity boots each of the five applications through the shared
// svcutil.Stack wiring — stateful tiers as shard groups, at 1 × 1 and at
// 2 × 2, under registry health leases — and asserts the live-stack
// invariants every app now shares in both layouts: shard labels in the
// registry metadata, lease heartbeats keeping the serving set alive across
// several TTLs, a Degraded flag that is present and false on a healthy
// probe of the app's degradable read, and a replicable logic tier the App
// can spawn while a store tier — and any tier the app keeps out of its
// replicable set — it cannot. It runs in one bubble, which cannot return
// while anything an app started is still running: every app booting,
// serving and closing here is also the proof that no goroutine outlives
// Close.
func TestSuiteParity(t *testing.T) {
	vtime.Run(t, func() {
		cases := []struct {
			name string
			// storeTier is one representative sharded stateful tier.
			storeTier string
			// logicTier is one replicable logic tier, and method and req a
			// call its replicas answer.
			logicTier, method string
			req               any
			// unspawnable are tiers besides storeTier the App must refuse
			// to clone.
			unspawnable []string
			// boot starts the app on the shared registry in layout and
			// returns a healthy probe of the degradable read, reporting its
			// Degraded flag.
			boot func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error)
		}{
			{
				name:      "social",
				storeTier: "social.db-posts",
				logicTier: "social.readTimeline", method: "Read",
				req:         socialnetwork.ReadTimelineReq{User: "nobody", Limit: 5},
				unspawnable: []string{"social.uniqueID", "social.search-index"},
				boot: func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error) {
					sn, err := socialnetwork.New(app, socialnetwork.Config{LayoutConfig: layout})
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					return func(ctx context.Context) (bool, error) {
						var resp socialnetwork.ReadTimelineResp
						err := sn.ReadTimeline.Call(ctx, "Read", socialnetwork.ReadTimelineReq{User: "nobody", Limit: 5}, &resp)
						return resp.Degraded, err
					}
				},
			},
			{
				name:      "media",
				storeTier: "media.db-reviews",
				logicTier: "media.movieDB", method: "Get", req: media.GetMovieReq{ID: "mv-1"},
				boot: func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error) {
					md, err := media.New(app, media.Config{LayoutConfig: layout})
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					if err := md.SeedMovie(media.Movie{ID: "mv-1", Title: "Heat", Year: 1995, Genre: "crime"},
						"a heist crew and a detective circle each other",
						[]media.CastMember{{MovieID: "mv-1", Actor: "A. Actor", Role: "lead"}}, nil); err != nil {
						t.Fatalf("seed: %v", err)
					}
					return func(ctx context.Context) (bool, error) {
						var page media.MoviePage
						err := md.Frontend.Do(ctx, "GET", "/movies/Heat", nil, &page)
						return page.Degraded, err
					}
				},
			},
			{
				name:      "ecommerce",
				storeTier: "ecom.db-catalogue",
				logicTier: "ecom.catalogue", method: "Get", req: ecommerce.GetItemReq{ID: "nothing"},
				boot: func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error) {
					ec, err := ecommerce.New(app, ecommerce.Config{LayoutConfig: layout})
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					t.Cleanup(ec.Close)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					if err := ec.User.Call(ctx, "Register", ecommerce.RegisterUserReq{Username: "pat", Password: "pw"}, nil); err != nil {
						t.Fatalf("seed: %v", err)
					}
					var login ecommerce.LoginResp
					if err := ec.User.Call(ctx, "Login", ecommerce.LoginReq{Username: "pat", Password: "pw"}, &login); err != nil {
						t.Fatalf("seed: %v", err)
					}
					return func(ctx context.Context) (bool, error) {
						var rec ecommerce.RecommendationsBody
						err := ec.Frontend.Do(ctx, "GET", "/recommend?token="+login.Token, nil, &rec)
						return rec.Degraded, err
					}
				},
			},
			{
				name:      "banking",
				storeTier: "bank.db-accounts",
				logicTier: "bank.customerInfo", method: "Get", req: banking.CustomerReq{Username: "pat"},
				boot: func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error) {
					bk, err := banking.New(app, banking.Config{LayoutConfig: layout})
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					token, _, err := bk.Onboard("pat", 9_000_000, 120_000)
					if err != nil {
						t.Fatalf("seed: %v", err)
					}
					return func(ctx context.Context) (bool, error) {
						var sum banking.SummaryBody
						err := bk.Frontend.Do(ctx, "GET", "/summary?token="+token, nil, &sum)
						return sum.Degraded, err
					}
				},
			},
			{
				name:      "swarm",
				storeTier: "swarm.db-telemetry",
				logicTier: "swarm.constructRoute", method: "Construct",
				req: swarm.RouteReq{From: swarm.Point{X: 0, Y: 0}, To: swarm.Point{X: 3, Y: 2}},
				boot: func(t *testing.T, app *core.App, layout svcutil.LayoutConfig) func(ctx context.Context) (bool, error) {
					sw, err := swarm.New(app, swarm.Config{
						Placement: swarm.Edge, Drones: 1, WorldSize: 16, Seed: 11,
						WifiRTT:      200 * time.Microsecond,
						LayoutConfig: layout,
					})
					if err != nil {
						t.Fatalf("boot: %v", err)
					}
					// Deterministic target pick: smallest (Y, X).
					var target swarm.Point
					first := true
					for p := range sw.World.Targets {
						if first || p.Y < target.Y || (p.Y == target.Y && p.X < target.X) {
							target = p
							first = false
						}
					}
					if first {
						t.Fatal("world has no targets")
					}
					return func(ctx context.Context) (bool, error) {
						res, err := sw.Drones[0].FlyTo(ctx, target)
						return res.Degraded, err
					}
				},
			},
		}

		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				for _, layout := range parityLayouts {
					t.Run(fmt.Sprintf("%dx%d", layout.Shards, layout.ShardReplicas), func(t *testing.T) {
						app := core.NewApp("parity-"+tc.name, core.Options{LeaseTTL: parityLeaseTTL})
						t.Cleanup(func() { app.Close() })
						probe := tc.boot(t, app, layout)

						// Shard metadata: the stateful tier runs shards x
						// replicas instances, every one labelled with its shard
						// index, each label carried by exactly one replica set.
						want := layout.Shards * layout.ShardReplicas
						instances := app.Registry.Instances(tc.storeTier)
						if len(instances) != want {
							t.Fatalf("%s has %d instances, want %d", tc.storeTier, len(instances), want)
						}
						labels := make(map[string]int)
						for _, inst := range instances {
							label, ok := inst.Meta[shard.MetaShard]
							if !ok || label == "" {
								t.Fatalf("instance %s carries no %s metadata", inst.Addr, shard.MetaShard)
							}
							labels[label]++
						}
						if len(labels) != layout.Shards {
							t.Fatalf("%s shard labels = %v, want %d distinct", tc.storeTier, labels, layout.Shards)
						}
						for label, n := range labels {
							if n != layout.ShardReplicas {
								t.Fatalf("shard %s has %d replicas, want %d", label, n, layout.ShardReplicas)
							}
						}

						// Lease heartbeats: the serving set survives several
						// TTLs — an instance that stopped renewing would have
						// been evicted.
						vtime.Advance(3 * parityLeaseTTL)
						if got := len(app.Registry.Lookup(tc.storeTier)); got != want {
							t.Fatalf("after 3x lease TTL %s serves %d addrs, want %d (heartbeat lapsed)", tc.storeTier, got, want)
						}

						// Degradation flag: present on the degradable read and
						// false while every dependency is healthy.
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						degraded, err := probe(ctx)
						if err != nil {
							t.Fatalf("healthy probe: %v", err)
						}
						if degraded {
							t.Fatal("healthy probe reported Degraded")
						}

						// Spawning: with no Config field set, the App spawns a
						// replica of a replicable logic tier that registers and
						// serves, and refuses to clone a store tier or an
						// unspawnable one.
						before := len(app.Registry.Lookup(tc.logicTier))
						addr, err := app.Spawn(tc.logicTier)
						if err != nil {
							t.Fatalf("spawn %s: %v", tc.logicTier, err)
						}
						if got := app.Registry.Lookup(tc.logicTier); len(got) != before+1 || !slices.Contains(got, addr) {
							t.Fatalf("%s serves %v after spawning %s, want %d replicas", tc.logicTier, got, addr, before+1)
						}
						c := rpc.NewClient(app.Net, tc.logicTier, addr)
						defer c.Close()
						if err := c.Call(ctx, tc.method, tc.req, nil); err != nil {
							t.Fatalf("spawned %s replica %s: %v", tc.logicTier, tc.method, err)
						}
						for _, tier := range append([]string{tc.storeTier}, tc.unspawnable...) {
							if _, err := app.Spawn(tier); err == nil {
								t.Fatalf("spawned a replica of %s", tier)
							}
						}
					})
				}
			})
		}
	})
}
