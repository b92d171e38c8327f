package swarm

import (
	"context"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/vtime"
)

func bootSwarm(t *testing.T, placement Placement) *Swarm {
	t.Helper()
	app := core.NewApp("swarm-test", core.Options{})
	t.Cleanup(func() { app.Close() })
	sw, err := New(app, Config{Placement: placement, Drones: 2, WorldSize: 24, Seed: 7, WifiRTT: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return sw
}

func anyTarget(t *testing.T, w *World) (Point, string) {
	t.Helper()
	if len(w.Targets) == 0 {
		t.Fatal("world has no targets")
	}
	// Deterministic pick: smallest (Y, X) — map iteration order varies.
	var best Point
	first := true
	for p := range w.Targets {
		if first || p.Y < best.Y || (p.Y == best.Y && p.X < best.X) {
			best = p
			first = false
		}
	}
	return best, w.Targets[best]
}

func TestWorldRouteAvoidsObstacles(t *testing.T) {
	w := NewWorld(24, 7)
	target, _ := anyTarget(t, w)
	path, err := w.Route(Point{0, 0}, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || path[len(path)-1] != target {
		t.Fatalf("path = %v", path)
	}
	prev := Point{0, 0}
	for _, p := range path {
		if w.At(p) == CellObstacle {
			t.Fatalf("route passes through obstacle at %v", p)
		}
		dx, dy := p.X-prev.X, p.Y-prev.Y
		if dx*dx+dy*dy != 1 {
			t.Fatalf("non-unit step %v -> %v", prev, p)
		}
		prev = p
	}
	// Degenerate cases.
	if _, err := w.Route(Point{-1, 0}, target); err == nil {
		t.Fatal("out-of-world route accepted")
	}
	if p, err := w.Route(target, target); err != nil || p != nil {
		t.Fatalf("self route = %v, %v", p, err)
	}
}

func TestRouteUnreachable(t *testing.T) {
	w := NewWorld(8, 1)
	// Wall off a corner cell completely.
	for _, p := range []Point{{1, 0}, {0, 1}, {1, 1}} {
		w.set(p, CellObstacle)
	}
	if _, err := w.Route(Point{5, 5}, Point{0, 0}); err == nil {
		t.Fatal("route into sealed corner succeeded")
	}
}

func TestRecognizeAllStockObjects(t *testing.T) {
	db := NewStockDB()
	for _, label := range StockLabels() {
		got, confident := db.Recognize(RenderObject(label))
		if got != label || !confident {
			t.Fatalf("Recognize(%s) = %s, %v", label, got, confident)
		}
		// Noisy capture still recognized.
		w := NewWorld(16, 3)
		var tp Point
		for p, l := range w.Targets {
			if l == label {
				tp = p
			}
		}
		if tp != (Point{}) {
			frame := CaptureFrame(w, tp, 99)
			got, confident = db.Recognize(frame)
			if got != label || !confident {
				t.Fatalf("noisy Recognize(%s) = %s, %v", label, got, confident)
			}
		}
	}
	// Ground texture must not be a confident match.
	w := NewWorld(16, 3)
	frame := CaptureFrame(w, Point{1, 1}, 5)
	if _, ok := w.Targets[Point{1, 1}]; !ok {
		if _, confident := db.Recognize(frame); confident {
			t.Fatal("confidently recognized bare ground")
		}
	}
}

func TestMissionEdgeAndCloud(t *testing.T) {
	for _, placement := range []Placement{Edge, Cloud} {
		t.Run(placement.String(), func(t *testing.T) {
			sw := bootSwarm(t, placement)
			target, wantLabel := anyTarget(t, sw.World)
			drone := sw.Drones[0]
			res, err := drone.FlyTo(context.Background(), target)
			if err != nil {
				t.Fatalf("mission: %v", err)
			}
			if drone.Pos != target {
				t.Fatalf("drone at %v, want %v", drone.Pos, target)
			}
			if res.Label != wantLabel || !res.Confident {
				t.Fatalf("recognized %q (confident=%v), want %q", res.Label, res.Confident, wantLabel)
			}
			if res.Steps == 0 || res.SensorLogs == 0 {
				t.Fatalf("res = %+v", res)
			}
			// Telemetry archived in the cloud DBs.
			ctx := context.Background()
			locs, err := sw.Telemetry.Find(ctx, "location", "drone", drone.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(locs) < res.Steps {
				t.Fatalf("location samples = %d, steps = %d", len(locs), res.Steps)
			}
			frames, err := sw.ArchivedSamples(ctx, "images")
			if err != nil {
				t.Fatal(err)
			}
			if frames != 1 {
				t.Fatalf("archived frames = %d", frames)
			}
		})
	}
}

func TestDynamicObstacleForcesReplan(t *testing.T) {
	sw := bootSwarm(t, Edge)
	target, _ := anyTarget(t, sw.World)
	drone := sw.Drones[0]

	// Mid-flight, drop an obstacle onto the next waypoint — the planner
	// could not have known about it, so avoidance must kick in.
	injected := false
	drone.OnTick = func(pos Point, remaining []Point) {
		if injected || len(remaining) < 3 {
			return
		}
		next := remaining[0]
		if _, isTarget := sw.World.Targets[next]; isTarget {
			return
		}
		sw.PlaceObstacle(next)
		injected = true
	}

	res, err := drone.FlyTo(context.Background(), target)
	if err != nil {
		t.Fatalf("mission with dynamic obstacle: %v", err)
	}
	if drone.Pos != target {
		t.Fatalf("drone at %v", drone.Pos)
	}
	if res.Replans == 0 && res.Held == 0 {
		t.Fatalf("obstacle never sensed: %+v", res)
	}
}

func TestCloudPlacementPaysWifiOnCompute(t *testing.T) {
	vtime.Run(t, func() {
		// With a large RTT, the cloud placement's mission takes longer than
		// edge for the same world — the Figure 9 low-load regime — by exactly
		// the wifi round trips it adds: every duration below is whole RTTs.
		rtt := 3 * time.Millisecond
		durations := map[Placement]time.Duration{}
		for _, placement := range []Placement{Edge, Cloud} {
			app := core.NewApp("swarm-rtt", core.Options{DisableTracing: true})
			sw, err := New(app, Config{Placement: placement, Drones: 1, WorldSize: 16, Seed: 11, WifiRTT: rtt})
			if err != nil {
				t.Fatal(err)
			}
			target, _ := anyTarget(t, sw.World)
			start := time.Now()
			if _, err := sw.Drones[0].FlyTo(context.Background(), target); err != nil {
				t.Fatal(err)
			}
			durations[placement] = time.Since(start)
			app.Close()
		}
		if edge, cloud := durations[Edge], durations[Cloud]; edge != 16*rtt || cloud != 31*rtt {
			t.Fatalf("edge %v, cloud %v; want %v and %v (16 and 31 wifi round trips)", edge, cloud, 16*rtt, 31*rtt)
		}
	})
}

func TestMultiDroneFleetSharesWorld(t *testing.T) {
	sw := bootSwarm(t, Edge)
	target, _ := anyTarget(t, sw.World)
	ctx := context.Background()
	done := make(chan error, len(sw.Drones))
	for _, d := range sw.Drones {
		go func(d *Drone) {
			_, err := d.FlyTo(ctx, target)
			done <- err
		}(d)
	}
	for range sw.Drones {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All telemetry landed, attributed per drone.
	for _, d := range sw.Drones {
		docs, err := sw.Telemetry.Find(ctx, "location", "drone", d.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) == 0 {
			t.Fatalf("no telemetry for %s", d.ID)
		}
	}
}

func TestDroneLogTail(t *testing.T) {
	sw := bootSwarm(t, Edge)
	target, _ := anyTarget(t, sw.World)
	drone := sw.Drones[0]
	if _, err := drone.FlyTo(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	var tail LogTailResp
	if err := drone.Clients.Log.Call(context.Background(), "Tail", LogTailReq{DroneID: drone.ID, Limit: 10}, &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Lines) < 2 {
		t.Fatalf("log lines = %v", tail.Lines)
	}
}

func TestProximitySensor(t *testing.T) {
	w := NewWorld(8, 2)
	w.set(Point{3, 2}, CellObstacle) // north of (3,3)
	prox := w.Proximity(Point{3, 3})
	if prox[1] != 1 { // row-major 3x3: index 1 = (0,-1)
		t.Fatalf("prox = %v", prox)
	}
	// World edges read as obstacles.
	edge := w.Proximity(Point{0, 0})
	if edge[0] != 1 || edge[1] != 1 || edge[3] != 1 {
		t.Fatalf("edge prox = %v", edge)
	}
}
