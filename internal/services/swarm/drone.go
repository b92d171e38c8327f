package swarm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dsb/internal/svcutil"
)

// syncMutex lets services.go avoid importing sync twice across files.
type syncMutex = sync.Mutex

// Placement selects where the heavy computation runs.
type Placement int

// Placements.
const (
	Edge Placement = iota
	Cloud
)

func (p Placement) String() string {
	if p == Edge {
		return "edge"
	}
	return "cloud"
}

// Clients are the service handles a drone uses; the boot code wires them
// with or without the wifi hop depending on placement.
type Clients struct {
	Route     svcutil.Caller // always cloud (constructRoute)
	Avoid     svcutil.Caller // on-drone (edge) or cloud
	Recognize svcutil.Caller // on-drone (edge) or cloud
	Telemetry svcutil.Caller // always cloud (sensor DBs)
	Log       svcutil.Caller // always on-drone
}

// Drone is one simulated vehicle.
type Drone struct {
	ID      string
	World   *World
	Pos     Point
	Heading int64 // degrees
	Seed    uint64
	Clients Clients
	// OnTick, if set, runs synchronously at the top of every mission loop
	// iteration — a hook for failure injection (e.g. dropping an obstacle
	// onto the remaining path mid-flight).
	OnTick func(pos Point, remaining []Point)
}

// MissionResult summarizes one photograph-the-target mission.
type MissionResult struct {
	Steps      int
	Replans    int
	Held       int // ticks spent holding position for obstacles
	Label      string
	Confident  bool
	SensorLogs int
	Elapsed    time.Duration
	// Degraded marks a mission that completed while shedding telemetry
	// because the cloud sensor DBs were unreachable. The telemetry hops
	// (Report, StoreFrame) are non-critical: the mission flies on with
	// samples dropped instead of aborting mid-air. Route construction and
	// obstacle avoidance stay critical — a drone without them cannot
	// safely move.
	Degraded bool
}

// maxMissionSteps bounds runaway missions.
const maxMissionSteps = 10000

// FlyTo executes a mission: route to target, avoid obstacles (re-routing
// when the path is blocked by something the planner didn't know), report
// telemetry, photograph the target, and run image recognition.
func (d *Drone) FlyTo(ctx context.Context, target Point) (MissionResult, error) {
	start := time.Now()
	var res MissionResult
	var route RouteResp
	if err := d.Clients.Route.Call(ctx, "Construct", RouteReq{DroneID: d.ID, From: d.Pos, To: target}, &route); err != nil {
		return res, err
	}
	d.log(ctx, fmt.Sprintf("mission to (%d,%d): %d waypoints", target.X, target.Y, len(route.Path)))

	path := route.Path
	for len(path) > 0 {
		if d.OnTick != nil {
			d.OnTick(d.Pos, path)
		}
		if res.Steps+res.Held >= maxMissionSteps {
			return res, fmt.Errorf("swarm: mission exceeded %d steps", maxMissionSteps)
		}
		next := path[0]
		move := Point{next.X - d.Pos.X, next.Y - d.Pos.Y}
		var avoid AvoidResp
		if err := d.Clients.Avoid.Call(ctx, "Check", AvoidReq{Proximity: d.World.Proximity(d.Pos), Move: move}, &avoid); err != nil {
			return res, err
		}
		switch {
		case !avoid.Blocked:
			d.Pos = next
			path = path[1:]
			res.Steps++
		case avoid.Detour != (Point{}):
			// Step aside, then ask the cloud for a fresh route.
			d.Pos = Point{d.Pos.X + avoid.Detour.X, d.Pos.Y + avoid.Detour.Y}
			res.Steps++
			if err := d.Clients.Route.Call(ctx, "Construct", RouteReq{DroneID: d.ID, From: d.Pos, To: target}, &route); err != nil {
				return res, err
			}
			path = route.Path
			res.Replans++
			d.log(ctx, fmt.Sprintf("replanned at (%d,%d)", d.Pos.X, d.Pos.Y))
		default:
			res.Held++
			if res.Held > 100 {
				return res, fmt.Errorf("swarm: drone %s boxed in at %v", d.ID, d.Pos)
			}
		}
		d.Heading = headingOf(move)
		if err := d.report(ctx); err != nil {
			res.Degraded = true
		} else {
			res.SensorLogs++
		}
	}

	// On target: photograph and recognize.
	frame := CaptureFrame(d.World, d.Pos, d.Seed)
	var rec RecognizeResp
	if err := d.Clients.Recognize.Call(ctx, "Recognize", RecognizeReq{Frame: frame}, &rec); err != nil {
		return res, err
	}
	res.Label, res.Confident = rec.Label, rec.Confident
	sf := StoreFrameReq{DroneID: d.ID, At: d.Pos, Frame: frame, Label: rec.Label}
	if err := svcutil.CallBounded(ctx, d.Clients.Telemetry, "StoreFrame", sf, nil); err != nil {
		res.Degraded = true
	}
	d.log(ctx, fmt.Sprintf("recognized %q (confident=%v)", rec.Label, rec.Confident))
	res.Elapsed = time.Since(start)
	return res, nil
}

func headingOf(m Point) int64 {
	switch m {
	case Point{1, 0}:
		return 90
	case Point{-1, 0}:
		return 270
	case Point{0, 1}:
		return 180
	default:
		return 0
	}
}

func (d *Drone) report(ctx context.Context) error {
	rep := SensorReport{
		DroneID:        d.ID,
		Location:       d.Pos,
		SpeedMilli:     5000,
		OrientationDeg: d.Heading,
		LuminosityPct:  int64(60 + (d.Pos.X+d.Pos.Y)%40),
	}
	return svcutil.CallBounded(ctx, d.Clients.Telemetry, "Report", rep, nil)
}

func (d *Drone) log(ctx context.Context, line string) {
	if d.Clients.Log != nil {
		d.Clients.Log.Call(ctx, "Append", LogReq{DroneID: d.ID, Line: line}, nil) //nolint:errcheck
	}
}
