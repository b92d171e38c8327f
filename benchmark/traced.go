package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/trace"
	"dsb/internal/transport"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each tier: a root span per op and, through a middleware on
// every client the app wires, one span per inter-tier call. Parent/child
// structure and per-tier self time come from the app's own trace store.

// rootSpan is one op as the benchmark saw it.
type rootSpan struct {
	Kind    string `json:"kind"` // "op"
	Trace   uint64 `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Err     string `json:"err,omitempty"`
}

// hopSpan is one inter-tier call as the calling side saw it.
type hopSpan struct {
	Kind       string `json:"kind"` // "hop"
	Trace      uint64 `json:"trace"`
	Target     string `json:"target"`
	Method     string `json:"method"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	Err        string `json:"err,omitempty"`
	ReplyBytes int    `json:"reply_bytes"`
}

// recorder keeps every span of a traced rep in memory; writeSpans dumps
// them as JSON lines when the benchmark ends.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	roots []rootSpan
	hops  []hopSpan
	tiers tierReport
}

func (r *recorder) start() { r.on.Store(true) }
func (r *recorder) stop()  { r.on.Store(false) }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (r *recorder) root(id trace.TraceID, start, end time.Time, err error) {
	s := rootSpan{Kind: "op", Trace: uint64(id), StartNs: start.UnixNano(), EndNs: end.UnixNano(), Err: errString(err)}
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
}

// middleware is installed through core.Options.ClientMiddleware, which puts
// it on every client the app wires — the benchmark's own and every
// inter-tier one — just inside the tracer's client span, so the context
// already carries the trace the call belongs to.
func (r *recorder) middleware(next transport.Invoker) transport.Invoker {
	return func(ctx context.Context, call *transport.Call) error {
		if !r.on.Load() {
			return next(ctx, call)
		}
		sc, _ := trace.FromContext(ctx)
		start := time.Now()
		err := next(ctx, call)
		s := hopSpan{
			Kind: "hop", Trace: uint64(sc.TraceID), Target: call.Target, Method: call.Method,
			StartNs: start.UnixNano(), EndNs: time.Now().UnixNano(), Err: errString(err), ReplyBytes: len(call.Reply),
		}
		r.mu.Lock()
		r.hops = append(r.hops, s)
		r.mu.Unlock()
		return err
	}
}

// writeSpans writes every recorded span to path, one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.roots {
		if err := enc.Encode(&r.roots[i]); err != nil {
			return err
		}
	}
	for i := range r.hops {
		if err := enc.Encode(&r.hops[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedTiers are the tiers that get a tier.<t>.self_us_per_op metric; mc
// and db sum the mc-* and db-* tiers, and every tier not listed lands in
// "other" so the account stays complete.
var tracedTiers = []string{
	"frontend", "readTimeline", "readPost", "postStorage", "blockedUsers", "composePost",
	"text", "writeTimeline", "socialGraph", "search", "mc", "db", "orders", "cart",
	"catalogue", "payment", "accountInfo", "invoicing", "queueMaster", "broker", "echo", "other",
}

// tierOf maps a service name ("social.mc-posts", "ecom.orders",
// "bench.echo") to its traced tier.
func tierOf(service string) string {
	_, tier, ok := strings.Cut(service, ".")
	if !ok {
		tier = service
	}
	switch {
	case strings.HasPrefix(tier, "mc-"):
		return "mc"
	case strings.HasPrefix(tier, "db-"):
		return "db"
	}
	for _, t := range tracedTiers {
		if t == tier {
			return t
		}
	}
	return "other"
}

// tierReport is what the app's trace store says about a traced rep.
type tierReport struct {
	// self is, per tier, the summed self time of its server spans: each
	// span's duration minus the part of it its child calls cover.
	self map[string]time.Duration
	// net is the summed client-span time not covered by the matching server
	// span: network, framing and scheduling on both ends of every hop.
	net time.Duration
	// top is the summed duration of top-level spans (the calls ops and
	// background workers made themselves).
	top time.Duration
}

// tierTimes walks every trace in the store. Self time is a server span's
// duration minus the union of its children's intervals, so parallel child
// calls are not subtracted twice.
func tierTimes(st *trace.Store) tierReport {
	rep := tierReport{self: make(map[string]time.Duration)}
	for _, b := range st.NetworkVsApplication() {
		rep.net += b.Network
	}
	var walk func(n *trace.Node, top bool)
	walk = func(n *trace.Node, top bool) {
		if top {
			rep.top += n.Span.Duration
		}
		if n.Span.Kind == trace.KindServer {
			rep.self[tierOf(n.Span.Service)] += n.Span.Duration - covered(n)
		}
		for _, c := range n.Children {
			// Tree re-attaches spans whose parent it does not hold (ours: the
			// op's root lives in the benchmark) under the earliest span;
			// those are top-level calls, not children.
			walk(c, c.Span.Parent != n.Span.SpanID)
		}
	}
	for _, id := range st.TraceIDs() {
		if root := st.Tree(id); root != nil {
			walk(root, true)
		}
	}
	return rep
}

// covered returns how much of n's interval its real children cover.
func covered(n *trace.Node) time.Duration {
	type iv struct{ from, to time.Time }
	start, end := n.Span.Start, n.Span.Start.Add(n.Span.Duration)
	var ivs []iv
	for _, c := range n.Children {
		if c.Span.Parent != n.Span.SpanID {
			continue
		}
		from, to := c.Span.Start, c.Span.Start.Add(c.Span.Duration)
		if from.Before(start) {
			from = start
		}
		if to.After(end) {
			to = end
		}
		if to.After(from) {
			ivs = append(ivs, iv{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var total time.Duration
	var upto time.Time
	for _, v := range ivs {
		if v.from.Before(upto) {
			v.from = upto
		}
		if v.to.After(v.from) {
			total += v.to.Sub(v.from)
			upto = v.to
		}
	}
	return total
}

// hopCounts is what the recorded hops say per op.
type hopCounts struct {
	calls, replyBytes                  int
	mc, dbReads, dbWrites, brokerCalls int
}

func (r *recorder) hopCounts() hopCounts {
	var c hopCounts
	for i := range r.hops {
		h := &r.hops[i]
		c.calls++
		c.replyBytes += h.ReplyBytes
		switch tierOf(h.Target) {
		case "mc":
			c.mc++
		case "broker":
			c.brokerCalls++
		case "db":
			switch h.Method {
			case "Get", "Find", "FindRange":
				c.dbReads++
			default: // Put, Delete, ListPrepend
				c.dbWrites++
			}
		}
	}
	return c
}

// tracedDefs are the per-layer metrics the traced rep yields, next to the
// ladder's; tier.<t>.self_us_per_op follows for every traced tier.
var tracedDefs = []metricDef{
	{name: "latency_p99_us", unit: "us"},
	{name: "trace.overhead_share", unit: "share"},
	{name: "hop.calls_per_op", unit: "count"},
	{name: "hop.net_share", unit: "share"},
	{name: "hop.reply_bytes_per_op", unit: "B"},
	{name: "mem.allocs_per_op", unit: "count"},
	{name: "mem.alloc_bytes_per_op", unit: "B"},
	{name: "mem.gc_cpu_share", unit: "share"},
	{name: "store.mc_calls_per_op", unit: "count"},
	{name: "store.db_reads_per_op", unit: "count"},
	{name: "store.db_writes_per_op", unit: "count"},
	{name: "store.broker_calls_per_op", unit: "count"},
	{name: "gen.lag_p99_us", unit: "us"},
	{name: "mq.drain_ms", unit: "ms"},
}

// perLayerDefs lists every per-layer metric a -trace 1 run prints: the
// traced rep's, one self time per tier, and the ladder's. All of them read
// lower-is-better.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), tracedDefs...)
	for _, t := range tracedTiers {
		defs = append(defs, metricDef{name: "tier." + t + ".self_us_per_op", unit: "us"})
	}
	for _, r := range ladder() {
		defs = append(defs, metricDef{name: r.name + "_ns", unit: "ns"})
		if r.allocs {
			defs = append(defs, metricDef{name: r.name + "_allocs", unit: "count"})
		}
		if r.bytes {
			defs = append(defs, metricDef{name: r.name + "_bytes", unit: "B"})
		}
	}
	for i := range defs {
		defs[i].better = "lower"
	}
	return defs
}

// runTraced is the -trace 1 run: one untraced rep as the reference, one rep
// of the same op list with tracing on, then the layer ladder. End-to-end
// metrics never come from here.
func runTraced(in inputs, spansPath string) (result, error) {
	ref, err := runRep(in, nil, maxTracedOps, 0)
	if err != nil {
		return result{}, fmt.Errorf("reference rep: %w", err)
	}
	rec := &recorder{}
	tr, err := runRep(in, rec, maxTracedOps, 0)
	if err != nil {
		return result{}, fmt.Errorf("traced rep: %w", err)
	}
	if spansPath != "" {
		if err := rec.writeSpans(spansPath); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Printf("%d ops untraced at %.1f ops/s, then traced at %.1f ops/s (%d hop spans, %d op spans); the ladder does not depend on workload or seed\n",
		ref.attempted, ref.throughput(), tr.throughput(), len(rec.hops), len(rec.roots))

	ops, refOps := float64(tr.attempted), float64(ref.attempted)
	hc := rec.hopCounts()
	overhead := 1 - tr.throughput()/ref.throughput()
	if in.due() != nil {
		// An open loop completes what is offered either way: tracing shows
		// in the CPU an op costs, not in throughput.
		overhead = 1 - float64(ref.cpu)/float64(max(tr.cpu, 1))
	}
	vals := map[string]float64{
		"latency_p99_us":            latUs(ref.lat, 99),
		"trace.overhead_share":      overhead,
		"hop.calls_per_op":          float64(hc.calls) / ops,
		"hop.net_share":             float64(rec.tiers.net) / float64(max(rec.tiers.top, 1)),
		"hop.reply_bytes_per_op":    float64(hc.replyBytes) / ops,
		"mem.allocs_per_op":         float64(ref.mallocs) / refOps,
		"mem.alloc_bytes_per_op":    float64(ref.bytes) / refOps,
		"mem.gc_cpu_share":          float64(ref.gcCPU) / float64(max(ref.cpu, 1)),
		"store.mc_calls_per_op":     float64(hc.mc) / ops,
		"store.db_reads_per_op":     float64(hc.dbReads) / ops,
		"store.db_writes_per_op":    float64(hc.dbWrites) / ops,
		"store.broker_calls_per_op": float64(hc.brokerCalls) / ops,
		"gen.lag_p99_us":            latUs(ref.lag, 99),
		"mq.drain_ms":               float64(ref.drain) / 1e6,
	}
	var selfSum time.Duration
	for _, t := range tracedTiers {
		selfSum += rec.tiers.self[t]
		vals["tier."+t+".self_us_per_op"] = us(rec.tiers.self[t]) / ops
	}
	// The account: tier self time plus hop time adds up to the time the
	// top-level calls took, when calls are sequential.
	fmt.Printf("account: tier self %.1f us/op + hops %.1f us/op = %.1f us/op, top-level calls took %.1f us/op\n",
		us(selfSum)/ops, us(rec.tiers.net)/ops, us(selfSum+rec.tiers.net)/ops, us(rec.tiers.top)/ops)

	if err := runLadder(vals); err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: tr.attempted, Failed: tr.failed, Metrics: make(map[string]value)}
	for _, d := range perLayerDefs() {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-36s %14.4f %-6s lower is better\n", d.name, v, d.unit)
	}
	return res, nil
}
