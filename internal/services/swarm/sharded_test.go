package swarm

import (
	"context"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/fault"
	"dsb/internal/rpc"
	"dsb/internal/shard"
)

// bootShardedSwarm boots the swarm with the telemetry store and route cache
// running shards×replicas instances behind consistent-hash routing.
func bootShardedSwarm(t *testing.T, app *core.App, shards, replicas int) *Swarm {
	t.Helper()
	sw, err := New(app, Config{
		Placement: Edge, Drones: 2, WorldSize: 24, Seed: 7,
		WifiRTT: 200 * time.Microsecond,
		Shards:  shards, ShardReplicas: replicas,
	})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return sw
}

// TestShardedMission flies a full mission on a 3-shard×2-replica telemetry
// layout and checks the samples landed across the shards.
func TestShardedMission(t *testing.T) {
	app := core.NewApp("swarm-sharded", core.Options{})
	t.Cleanup(func() { app.Close() })
	sw := bootShardedSwarm(t, app, 3, 2)
	ctx := context.Background()

	instances := sw.App.Registry.Instances("swarm.db-telemetry")
	if len(instances) != 6 {
		t.Fatalf("db-telemetry has %d instances, want 6", len(instances))
	}
	labels := make(map[string]int)
	for _, inst := range instances {
		labels[inst.Meta[shard.MetaShard]]++
	}
	if len(labels) != 3 {
		t.Fatalf("db-telemetry shard labels = %v, want 3 distinct", labels)
	}

	target, wantLabel := anyTarget(t, sw.World)
	res, err := sw.Drones[0].FlyTo(ctx, target)
	if err != nil {
		t.Fatalf("mission: %v", err)
	}
	if res.Label != wantLabel || res.Degraded {
		t.Fatalf("res = %+v, want %q undegraded", res, wantLabel)
	}
	locs, err := sw.Telemetry.Find(ctx, "location", "drone", sw.Drones[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) < res.Steps {
		t.Fatalf("location samples = %d, steps = %d", len(locs), res.Steps)
	}
}

// TestShardedSurvivesReplicaFault errors the first replica of each
// db-telemetry shard: with two replicas per shard, telemetry writes land on
// the healthy sibling and the mission stays undegraded.
func TestShardedSurvivesReplicaFault(t *testing.T) {
	inj := fault.NewInjector(31)
	app := core.NewApp("swarm-sharded-fault", core.Options{Network: inj.Wrap(rpc.NewMem())})
	t.Cleanup(func() { app.Close() })
	sw := bootShardedSwarm(t, app, 2, 2)

	seen := make(map[string]bool)
	for _, inst := range sw.App.Registry.Instances("swarm.db-telemetry") {
		label := inst.Meta[shard.MetaShard]
		if seen[label] {
			continue
		}
		seen[label] = true
		defer inj.Add(fault.Rule{To: "swarm.db-telemetry", Addr: inst.Addr, ErrCode: rpc.CodeUnavailable})()
	}

	target, _ := anyTarget(t, sw.World)
	res, err := sw.Drones[0].FlyTo(context.Background(), target)
	if err != nil {
		t.Fatalf("mission under replica fault: %v", err)
	}
	if res.Degraded {
		t.Fatalf("mission degraded despite healthy sibling replicas: %+v", res)
	}
	if res.SensorLogs == 0 {
		t.Fatalf("no telemetry archived: %+v", res)
	}
}

// TestMissionDegradesWithoutTelemetry kills the whole telemetry tier: the
// mission completes with samples shed and Degraded set.
func TestMissionDegradesWithoutTelemetry(t *testing.T) {
	boot := func(t *testing.T) (*Swarm, *fault.Injector) {
		inj := fault.NewInjector(37)
		app := core.NewApp("swarm-degrade", core.Options{Network: inj.Wrap(rpc.NewMem())})
		t.Cleanup(func() { app.Close() })
		sw, err := New(app, Config{
			Placement: Edge, Drones: 1, WorldSize: 24, Seed: 7,
			WifiRTT: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		return sw, inj
	}

	t.Run("degraded", func(t *testing.T) {
		sw, inj := boot(t)
		defer inj.Add(fault.Rule{To: "swarm.telemetry", ErrCode: rpc.CodeUnavailable})()
		target, wantLabel := anyTarget(t, sw.World)
		res, err := sw.Drones[0].FlyTo(context.Background(), target)
		if err != nil {
			t.Fatalf("degraded mission should still fly: %v", err)
		}
		if !res.Degraded || res.SensorLogs != 0 {
			t.Fatalf("res = %+v, want Degraded with all samples shed", res)
		}
		if res.Label != wantLabel || !res.Confident {
			t.Fatalf("critical recognition lost under degradation: %+v", res)
		}
	})
}

// TestRouteCacheInvalidatedByWorldChange checks the version-keyed route
// cache: the same query twice hits the cache, and a world mutation bumps
// the version so the next query recomputes against the new grid.
func TestRouteCacheInvalidatedByWorldChange(t *testing.T) {
	app := core.NewApp("swarm-routecache", core.Options{})
	t.Cleanup(func() { app.Close() })
	sw := bootShardedSwarm(t, app, 2, 2)
	ctx := context.Background()
	route, err := app.RPC("test", "swarm.constructRoute")
	if err != nil {
		t.Fatal(err)
	}

	target, _ := anyTarget(t, sw.World)
	var first, second RouteResp
	if err := route.Call(ctx, "Construct", RouteReq{From: Point{0, 0}, To: target}, &first); err != nil {
		t.Fatal(err)
	}
	if err := route.Call(ctx, "Construct", RouteReq{From: Point{0, 0}, To: target}, &second); err != nil {
		t.Fatal(err)
	}
	if len(first.Path) == 0 || len(first.Path) != len(second.Path) {
		t.Fatalf("cached route differs: %d vs %d waypoints", len(first.Path), len(second.Path))
	}

	// Block the first waypoint: the version bump must force a fresh BFS
	// that routes around it.
	blocked := first.Path[0]
	if _, isTarget := sw.World.Targets[blocked]; isTarget {
		t.Skip("first waypoint is the target; cannot block it")
	}
	sw.PlaceObstacle(blocked)
	var replanned RouteResp
	if err := route.Call(ctx, "Construct", RouteReq{From: Point{0, 0}, To: target}, &replanned); err != nil {
		t.Fatal(err)
	}
	for _, p := range replanned.Path {
		if p == blocked {
			t.Fatalf("stale cached route served through new obstacle at %v", p)
		}
	}
}
