package swarm

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// RouteReq asks constructRoute for a path.
type RouteReq struct {
	DroneID  string
	From, To Point
}

// RouteResp returns the waypoints (excluding From, including To).
type RouteResp struct{ Path []Point }

const routeCacheTTL = time.Minute

// registerConstructRoute installs the cloud constructRoute service (Java
// tier in Figure 8): BFS shortest path over the shared world map. Route
// construction — the hottest read in the app, hit once per mission plus
// once per replan by every drone in the fleet — runs through the shared
// cache-aside ReadPath, keyed by (world version, from, to): a whole fleet
// launching at the same corner coalesces into one BFS, and any obstacle
// change bumps the version so stale paths are never served.
func registerConstructRoute(srv *rpc.Server, world *World, mc svcutil.KV) {
	routePath := &svcutil.ReadPath[[]Point]{
		MC:  mc,
		TTL: routeCacheTTL,
		Decode: func(b []byte) ([]Point, error) {
			var resp RouteResp
			err := codec.Unmarshal(b, &resp)
			return resp.Path, err
		},
		Fetch: func(ctx context.Context, key string) ([]Point, []byte, bool, error) {
			var version int64
			var from, to Point
			if _, err := fmt.Sscanf(key, "route:v%d:%d,%d-%d,%d", &version, &from.X, &from.Y, &to.X, &to.Y); err != nil {
				return nil, nil, false, rpc.Errorf(rpc.CodeBadRequest, "constructRoute: bad route key %q", key)
			}
			path, err := world.Route(from, to)
			if err != nil {
				return nil, nil, false, rpc.Errorf(rpc.CodeBadRequest, "constructRoute: %v", err)
			}
			body, err := codec.Marshal(RouteResp{Path: path})
			if err != nil {
				return nil, nil, false, err
			}
			return path, body, true, nil
		},
	}
	svcutil.Handle(srv, "Construct", func(ctx *rpc.Ctx, req *RouteReq) (*RouteResp, error) {
		key := fmt.Sprintf("route:v%d:%d,%d-%d,%d", world.Version(), req.From.X, req.From.Y, req.To.X, req.To.Y)
		path, _, err := routePath.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		return &RouteResp{Path: path}, nil
	})
}

// AvoidReq asks obstacle avoidance to vet a move.
type AvoidReq struct {
	// Proximity is the 3x3 obstacle neighborhood (row-major, center=4).
	Proximity [9]byte
	// Move is the intended unit step.
	Move Point
}

// AvoidResp reports whether the move is safe and, if not, a safe detour
// (zero Point means hold position).
type AvoidResp struct {
	Blocked bool
	Detour  Point
}

// proximityIndex maps a unit move to its 3x3 neighborhood index.
func proximityIndex(m Point) int {
	return int((m.Y+1)*3 + (m.X + 1))
}

// registerObstacleAvoidance installs the obstacleAvoidance service (C++
// tier): if the intended cell is occupied, propose a perpendicular detour,
// preferring a free one.
func registerObstacleAvoidance(srv *rpc.Server) {
	svcutil.Handle(srv, "Check", func(ctx *rpc.Ctx, req *AvoidReq) (*AvoidResp, error) {
		if req.Move.X < -1 || req.Move.X > 1 || req.Move.Y < -1 || req.Move.Y > 1 {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "obstacleAvoidance: non-unit move")
		}
		if req.Proximity[proximityIndex(req.Move)] == 0 {
			return &AvoidResp{}, nil
		}
		// Perpendicular detours.
		detours := []Point{{req.Move.Y, req.Move.X}, {-req.Move.Y, -req.Move.X}}
		for _, d := range detours {
			if req.Proximity[proximityIndex(d)] == 0 {
				return &AvoidResp{Blocked: true, Detour: d}, nil
			}
		}
		return &AvoidResp{Blocked: true}, nil // hold position
	})
}

// RecognizeReq submits a camera frame for classification.
type RecognizeReq struct{ Frame []byte }

// RecognizeResp returns the best label and confidence.
type RecognizeResp struct {
	Label     string
	Confident bool
}

// registerImageRecognition installs the imageRecognition service (jimp /
// OpenCV tier) over the StockImageDB.
func registerImageRecognition(srv *rpc.Server, db *StockDB) {
	svcutil.Handle(srv, "Recognize", func(ctx *rpc.Ctx, req *RecognizeReq) (*RecognizeResp, error) {
		if len(req.Frame) != frameSide*frameSide {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "imageRecognition: frame must be %d bytes", frameSide*frameSide)
		}
		label, ok := db.Recognize(req.Frame)
		return &RecognizeResp{Label: label, Confident: ok}, nil
	})
}

// SensorReport is one telemetry sample from a drone.
type SensorReport struct {
	DroneID        string
	Location       Point
	SpeedMilli     int64 // m/s * 1000
	OrientationDeg int64
	LuminosityPct  int64
	At             int64
}

// StoreFrameReq archives a captured frame in ImageDB.
type StoreFrameReq struct {
	DroneID string
	At      Point
	Frame   []byte
	Label   string
}

// registerTelemetry installs the cloud sensor databases (LocationDB,
// SpeedDB, OrientationDB, LuminosityDB, ImageDB of Figure 8) behind one
// RPC surface. The tier itself is stateless logic: samples persist into
// per-sensor collections of the db-telemetry store tier, which shards like
// every other stateful tier in the suite. Samples arrive as unary
// Report/StoreFrame calls, one RTT each.
func registerTelemetry(srv *rpc.Server, db svcutil.DB) {
	var seq atomic.Int64
	svcutil.Handle(srv, "Report", func(ctx *rpc.Ctx, req *SensorReport) (*struct{}, error) {
		if req.DroneID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "telemetry: drone ID required")
		}
		if req.At == 0 {
			req.At = time.Now().UnixNano()
		}
		body, err := codec.Marshal(*req)
		if err != nil {
			return nil, err
		}
		n := seq.Add(1)
		for _, col := range []string{"location", "speed", "orientation", "luminosity"} {
			doc := docstore.Doc{
				ID:     fmt.Sprintf("%s-%d-%d", req.DroneID, req.At, n),
				Fields: map[string]string{"drone": req.DroneID},
				Body:   body,
			}
			if err := db.Put(ctx, col, doc); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	svcutil.Handle(srv, "StoreFrame", func(ctx *rpc.Ctx, req *StoreFrameReq) (*struct{}, error) {
		body, err := codec.Marshal(*req)
		if err != nil {
			return nil, err
		}
		return nil, db.Put(ctx, "images", docstore.Doc{
			ID:     fmt.Sprintf("%s-%d-%d-%d", req.DroneID, req.At.X, req.At.Y, time.Now().UnixNano()),
			Fields: map[string]string{"drone": req.DroneID, "label": req.Label},
			Body:   body,
		})
	})
	svcutil.Handle(srv, "History", func(ctx *rpc.Ctx, req *SensorReport) (*struct{ Count int64 }, error) {
		docs, err := db.Find(ctx, "location", "drone", req.DroneID, 0)
		if err != nil {
			return nil, err
		}
		return &struct{ Count int64 }{Count: int64(len(docs))}, nil
	})
}

// LogReq appends a line to the on-drone diagnostics log (Log.js tier).
type LogReq struct {
	DroneID string
	Line    string
}

// LogTailReq reads back recent lines.
type LogTailReq struct {
	DroneID string
	Limit   int64
}

// LogTailResp returns recent lines, oldest first.
type LogTailResp struct{ Lines []string }

// registerLog installs the local logging service that runs on each drone.
func registerLog(srv *rpc.Server) {
	logs := make(map[string][]string)
	var mu syncMutex
	svcutil.Handle(srv, "Append", func(ctx *rpc.Ctx, req *LogReq) (*struct{}, error) {
		mu.Lock()
		defer mu.Unlock()
		// The log keeps copies: decoded strings share their request's memory.
		lines := append(logs[req.DroneID], strings.Clone(req.Line))
		if len(lines) > 1000 {
			lines = lines[len(lines)-1000:]
		}
		logs[strings.Clone(req.DroneID)] = lines
		return nil, nil
	})
	svcutil.Handle(srv, "Tail", func(ctx *rpc.Ctx, req *LogTailReq) (*LogTailResp, error) {
		mu.Lock()
		defer mu.Unlock()
		lines := logs[req.DroneID]
		limit := int(req.Limit)
		if limit > 0 && len(lines) > limit {
			lines = lines[len(lines)-limit:]
		}
		out := make([]string, len(lines))
		copy(out, lines)
		return &LogTailResp{Lines: out}, nil
	})
}
