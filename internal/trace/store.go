package trace

import (
	"sort"
	"sync"
	"time"

	"dsb/internal/metrics"
)

// Collector receives finished spans asynchronously (like the Zipkin
// collector) and writes them to a Store. Submission never blocks request
// processing: if the buffer is full the span is dropped and counted, which
// keeps the tracing overhead on end-to-end latency negligible — the paper
// reports <0.1% and the overhead test asserts the same property.
type Collector struct {
	store   *Store
	ch      chan envelope
	dropped metrics.Counter
	wg      sync.WaitGroup
	mu      sync.RWMutex
	closed  bool
}

// envelope carries either a span or a flush barrier.
type envelope struct {
	span Span
	sync chan struct{} // non-nil: flush barrier, close instead of storing
}

// NewCollector starts a collector feeding store.
func NewCollector(store *Store, buffer int) *Collector {
	if buffer <= 0 {
		buffer = 4096
	}
	c := &Collector{store: store, ch: make(chan envelope, buffer)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for e := range c.ch {
			if e.sync != nil {
				close(e.sync)
				continue
			}
			store.add(e.span)
		}
	}()
	return c
}

// Submit enqueues a span, dropping it if the collector is saturated or
// already closed. Spans can legitimately finish during shutdown — an
// async consumer's in-flight call completing as the app tears down — so a
// late span counts as dropped rather than panicking the process.
func (c *Collector) Submit(s Span) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		c.dropped.Inc()
		return
	}
	select {
	case c.ch <- envelope{span: s}:
	default:
		c.dropped.Inc()
	}
}

// Flush blocks until every span submitted before the call has been written
// to the store, so callers can query traces mid-run.
func (c *Collector) Flush() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return
	}
	done := make(chan struct{})
	select {
	case c.ch <- envelope{sync: done}:
		<-done
	default:
		// Saturated; nothing stronger we can promise.
	}
}

// Close drains buffered spans into the store and stops the collector.
func (c *Collector) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Store is the centralized trace database. All methods are safe for
// concurrent use with ongoing collection.
type Store struct {
	mu     sync.Mutex
	traces map[TraceID][]Span
	order  []TraceID // insertion order of first span per trace
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{traces: make(map[TraceID][]Span)}
}

func (st *Store) add(s Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, seen := st.traces[s.TraceID]; !seen {
		st.order = append(st.order, s.TraceID)
	}
	st.traces[s.TraceID] = append(st.traces[s.TraceID], s)
}

// Len returns the number of traces stored.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}

// TraceIDs returns trace IDs in arrival order.
func (st *Store) TraceIDs() []TraceID {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]TraceID, len(st.order))
	copy(out, st.order)
	return out
}

// Spans returns a copy of the spans of one trace, sorted by start time.
func (st *Store) Spans(id TraceID) []Span {
	st.mu.Lock()
	spans := st.traces[id]
	out := make([]Span, len(spans))
	copy(out, spans)
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Node is a span with its resolved children, forming the request tree.
type Node struct {
	Span     Span
	Children []*Node
}

// Tree assembles the span tree of a trace. Spans whose parent was dropped
// are attached to the root-most span. Returns nil for unknown traces.
func (st *Store) Tree(id TraceID) *Node {
	spans := st.Spans(id)
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[SpanID]*Node, len(spans))
	for _, s := range spans {
		nodes[s.SpanID] = &Node{Span: s}
	}
	var root *Node
	var orphans []*Node
	for _, n := range nodes {
		if n.Span.Parent == 0 {
			if root == nil || n.Span.Start.Before(root.Span.Start) {
				root = n
			}
			continue
		}
		if p, ok := nodes[n.Span.Parent]; ok {
			p.Children = append(p.Children, n)
		} else {
			orphans = append(orphans, n)
		}
	}
	if root == nil {
		// All spans have missing parents (sampled tail); pick the earliest.
		earliest := spans[0]
		root = nodes[earliest.SpanID]
	}
	for _, o := range orphans {
		if o != root {
			root.Children = append(root.Children, o)
		}
	}
	sortTree(root)
	return root
}

func sortTree(n *Node) {
	sort.Slice(n.Children, func(i, j int) bool {
		return n.Children[i].Span.Start.Before(n.Children[j].Span.Start)
	})
	for _, c := range n.Children {
		sortTree(c)
	}
}

// ServiceLatencies aggregates server-span latencies per service across all
// traces, the store's equivalent of "per-microservice latency at RPC
// granularity".
func (st *Store) ServiceLatencies() map[string]*metrics.Histogram {
	st.mu.Lock()
	all := make([]Span, 0, 256)
	for _, spans := range st.traces {
		all = append(all, spans...)
	}
	st.mu.Unlock()
	out := make(map[string]*metrics.Histogram)
	for _, s := range all {
		if s.Kind != KindServer {
			continue
		}
		h, ok := out[s.Service]
		if !ok {
			h = metrics.NewHistogram()
			out[s.Service] = h
		}
		h.RecordDuration(s.Duration)
	}
	return out
}

// NetworkBreakdown computes, per service, total time spent in network
// processing vs application processing across all traces. For each
// client-span → child server-span pair, network time is the client-observed
// duration minus the server's processing time; the server time is
// application processing attributed to the callee service.
type NetworkBreakdown struct {
	Application time.Duration
	Network     time.Duration
}

// NetworkVsApplication aggregates the breakdown per callee service.
func (st *Store) NetworkVsApplication() map[string]NetworkBreakdown {
	st.mu.Lock()
	byTrace := make(map[TraceID][]Span, len(st.traces))
	for id, spans := range st.traces {
		cp := make([]Span, len(spans))
		copy(cp, spans)
		byTrace[id] = cp
	}
	st.mu.Unlock()

	out := make(map[string]NetworkBreakdown)
	for _, spans := range byTrace {
		servers := make(map[SpanID]Span) // parent (client span id) -> server span
		for _, s := range spans {
			if s.Kind == KindServer && s.Parent != 0 {
				servers[s.Parent] = s
			}
		}
		for _, s := range spans {
			if s.Kind != KindClient {
				continue
			}
			srv, ok := servers[s.SpanID]
			if !ok {
				continue
			}
			net := s.Duration - srv.Duration
			if net < 0 {
				net = 0
			}
			b := out[srv.Service]
			b.Network += net
			b.Application += srv.Duration
			out[srv.Service] = b
		}
	}
	return out
}

// CriticalPath returns the chain of spans that determines the end-to-end
// latency of a trace: starting from the root, repeatedly descend into the
// child whose finish time is latest. Used to identify which microservice
// is the bottleneck of a request.
func (st *Store) CriticalPath(id TraceID) []Span {
	root := st.Tree(id)
	if root == nil {
		return nil
	}
	var path []Span
	n := root
	for {
		path = append(path, n.Span)
		if len(n.Children) == 0 {
			return path
		}
		latest := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.Span.Start.Add(c.Span.Duration).After(latest.Span.Start.Add(latest.Span.Duration)) {
				latest = c
			}
		}
		n = latest
	}
}

// Reset clears all stored traces.
func (st *Store) Reset() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.traces = make(map[TraceID][]Span)
	st.order = nil
}
