package controlplane

import (
	"context"
	"time"

	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
)

// LoadMethod is the reserved RPC method every admission-guarded replica
// answers with its LoadReport; it bypasses admission control.
const LoadMethod = "controlplane.Load"

// LoadPath is the REST equivalent of LoadMethod.
const LoadPath = "/-/controlplane/load"

// LoadReport is one replica's windowed self-description, the raw input the
// controller aggregates per service. All latencies are nanoseconds so the
// report codecs stay integer-only.
type LoadReport struct {
	// Service and Addr identify the replica; the controller fills them
	// from the registry entry it queried, so replicas need not know their
	// own public address.
	Service string
	Addr    string

	// Workers is the replica's worker-pool size (0 = unbounded).
	Workers int
	// Utilization is the fraction of worker time spent in handlers over
	// the window, in [0,1]; meaningless (0) for unbounded replicas.
	Utilization float64
	// QueueDepth and InFlight are instantaneous.
	QueueDepth int64
	InFlight   int64
	// RatePerSec counts completed requests over the window; ShedPerSec
	// counts admission rejections.
	RatePerSec float64
	ShedPerSec float64
	// P50Ns/P99Ns summarize sojourn time (queue wait + service) over the
	// window. QueueP99Ns is wait alone — the signal that distinguishes a
	// genuinely backlogged tier from an upstream tier whose handlers are
	// merely blocked on a slow downstream (Fig 18's mis-scaling trap).
	P50Ns      int64
	P99Ns      int64
	QueueP99Ns int64
	// ServiceEWMANs is the replica's expected per-request service time.
	ServiceEWMANs int64
	// Admitted and Shed are lifetime totals.
	Admitted int64
	Shed     int64
}

// RegisterReport installs the load-report method on an RPC server.
func RegisterReport(srv *rpc.Server, a *Admission) {
	svcutil.Handle(srv, LoadMethod, func(ctx *rpc.Ctx, req *struct{}) (*LoadReport, error) {
		r := a.Report()
		return &r, nil
	})
}

// RegisterRESTReport installs the load-report path on a REST server.
func RegisterRESTReport(srv *rest.Server, a *Admission) {
	srv.Handle("GET "+LoadPath, func(ctx *rest.Ctx, body []byte) (any, error) {
		return a.Report(), nil
	})
}

// FetchReport queries one replica's load report over a short deadline; the
// controller calls it per registry entry each reconcile pass.
func FetchReport(ctx context.Context, client svcutil.Caller, timeout time.Duration) (LoadReport, error) {
	if timeout <= 0 {
		timeout = 50 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var r LoadReport
	err := client.Call(ctx, LoadMethod, struct{}{}, &r)
	return r, err
}
