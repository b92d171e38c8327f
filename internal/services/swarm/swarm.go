package swarm

import (
	"context"
	"fmt"
	"time"

	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// Config shapes the deployment.
type Config struct {
	// Placement selects Swarm-Edge or Swarm-Cloud.
	Placement Placement
	// Drones is the fleet size (default 4).
	Drones int
	// WorldSize is the grid side (default 32).
	WorldSize int64
	// WifiRTT is the injected cloud↔edge round-trip (default 2ms in tests;
	// the paper's drones saw tens of ms over a shared router).
	WifiRTT time.Duration
	// Seed drives world generation and camera noise.
	Seed uint64
	// LayoutConfig shards and replicates the telemetry and route storage
	// tiers and carries the inter-tier middleware.
	svcutil.LayoutConfig
}

// swarmReplicable names the logic tiers safe to run multi-instance: their
// state lives in the db/mc tiers or the shared in-process world. The
// on-drone log tier stays single-instance — its ring buffers live in the
// process.
var swarmReplicable = map[string]bool{
	"constructRoute": true, "telemetry": true,
	"obstacleAvoidance": true, "imageRecognition": true,
}

// Swarm is a running deployment: the fleet plus cloud services.
type Swarm struct {
	App       *core.App
	World     *World
	Drones    []*Drone
	Telemetry svcutil.DB // client handle onto the cloud sensor DB tier
	Placement Placement
}

// New boots the Swarm service in the requested placement. Cloud services
// (constructRoute, the telemetry tier and its db-telemetry store) always
// sit behind the wifi hop; the compute tiers (obstacleAvoidance,
// imageRecognition) run on-drone for Edge and behind the wifi hop for
// Cloud.
func New(app *core.App, cfg Config) (*Swarm, error) {
	if cfg.Drones <= 0 {
		cfg.Drones = 4
	}
	if cfg.WorldSize <= 0 {
		cfg.WorldSize = 32
	}
	if cfg.WifiRTT <= 0 {
		cfg.WifiRTT = 2 * time.Millisecond
	}
	world := NewWorld(cfg.WorldSize, cfg.Seed)
	stock := NewStockDB()

	stack := cfg.Stack(app, "swarm.", swarmReplicable)
	if err := stack.StartStores("db-telemetry"); err != nil {
		return nil, err
	}
	if err := stack.StartCaches("mc-routes"); err != nil {
		return nil, err
	}

	db, mc, start := stack.DB, stack.KV, stack.Start

	// Cloud services.
	start("constructRoute", func(s *rpc.Server) {
		registerConstructRoute(s, world, mc("constructRoute", "mc-routes"))
	})
	start("telemetry", func(s *rpc.Server) {
		registerTelemetry(s, db("telemetry", "db-telemetry"))
	})
	// Compute tiers exist once; placement decides which side of the wifi
	// hop the *callers* are on.
	start("obstacleAvoidance", registerObstacleAvoidance)
	start("imageRecognition", func(s *rpc.Server) {
		registerImageRecognition(s, stock)
	})
	start("log", registerLog)
	if err := stack.Boot(); err != nil {
		return nil, fmt.Errorf("swarm: boot: %w", err)
	}

	sw := &Swarm{App: app, World: world, Telemetry: db("client", "db-telemetry"), Placement: cfg.Placement}
	for i := 0; i < cfg.Drones; i++ {
		droneID := fmt.Sprintf("drone-%02d", i)
		clients, err := wireClients(app, droneID, cfg)
		if err != nil {
			return nil, err
		}
		sw.Drones = append(sw.Drones, &Drone{
			ID:      droneID,
			World:   world,
			Pos:     Point{0, 0},
			Seed:    cfg.Seed + uint64(i),
			Clients: clients,
		})
	}
	return sw, nil
}

// wireClients builds a drone's service handles. Calls that cross the
// cloud↔edge boundary get a transport.Delay middleware of the wifi RTT
// (applied once per call, covering the round trip).
func wireClients(app *core.App, droneID string, cfg Config) (Clients, error) {
	wifi := func(target string) (svcutil.Caller, error) {
		// app.RPC puts tracing outermost, so spans include the wifi time,
		// exactly like a real client-observed latency.
		return app.RPC(droneID, target, transport.Delay(cfg.WifiRTT))
	}
	local := func(target string) (svcutil.Caller, error) {
		return app.RPC(droneID, target)
	}

	var c Clients
	var err error
	if c.Route, err = wifi("swarm.constructRoute"); err != nil {
		return c, err
	}
	if c.Telemetry, err = wifi("swarm.telemetry"); err != nil {
		return c, err
	}
	if c.Log, err = local("swarm.log"); err != nil {
		return c, err
	}
	compute := local
	if cfg.Placement == Cloud {
		compute = wifi
	}
	if c.Avoid, err = compute("swarm.obstacleAvoidance"); err != nil {
		return c, err
	}
	if c.Recognize, err = compute("swarm.imageRecognition"); err != nil {
		return c, err
	}
	return c, nil
}

// ArchivedSamples counts telemetry documents in one sensor collection
// across the fleet (the boot-time drone IDs).
func (s *Swarm) ArchivedSamples(ctx context.Context, collection string) (int, error) {
	total := 0
	for _, d := range s.Drones {
		docs, err := s.Telemetry.Find(ctx, collection, "drone", d.ID, 0)
		if err != nil {
			return 0, err
		}
		total += len(docs)
	}
	return total, nil
}

// PlaceObstacle injects a dynamic obstacle (for avoidance/replan tests and
// failure injection). Placing one on a target removes the target.
func (s *Swarm) PlaceObstacle(p Point) { s.World.set(p, CellObstacle) }
