// Package trace implements the suite's distributed tracing system, the role
// Dapper/Zipkin play in DeathStarBench: every RPC and REST request is
// timestamped on arrival and departure at each microservice, spans carrying
// the same trace ID are associated into end-to-end request trees, and
// traces land in a centralized queryable store (the paper uses Cassandra;
// ours is an in-memory store with the same query surface).
//
// The convention is Dapper's: the caller opens a *client* span, propagates
// (trace ID, span ID) in message headers, and the callee opens a *server*
// span whose parent is the client span. The difference between a client
// span and its child server span is time spent in the network and kernel
// stack — the quantity Figures 3 and 15 of the paper are built from.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies an end-to-end request.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Span kinds.
const (
	KindClient = "client"
	KindServer = "server"
)

// Header keys used for context propagation across RPC and REST hops.
const (
	HeaderTrace   = "dsb-trace"
	HeaderSpan    = "dsb-span"
	HeaderSampled = "dsb-sampled"
)

// Span is a finished span as recorded in the store.
type Span struct {
	TraceID   TraceID
	SpanID    SpanID
	Parent    SpanID // zero for root spans
	Service   string
	Operation string
	Kind      string
	Start     time.Time
	Duration  time.Duration
	Err       string
	// Annotations carry measurement tags, e.g. payload sizes.
	Annotations map[string]string
}

// SpanContext is the propagated identity of an in-flight span. Dropped
// reports the sampling decision made at the trace root: spans of a dropped
// trace keep propagating identity (so the decision survives every hop) but
// are never submitted to the collector.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Dropped bool
}

// Valid reports whether the context identifies a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Inject writes the span context into an outgoing header map.
func (sc SpanContext) Inject(headers map[string]string) {
	headers[HeaderTrace] = strconv.FormatUint(uint64(sc.TraceID), 16)
	headers[HeaderSpan] = strconv.FormatUint(uint64(sc.SpanID), 16)
	if sc.Dropped {
		headers[HeaderSampled] = "0"
	}
}

// Extract reads a span context from incoming headers.
func Extract(headers map[string]string) (SpanContext, bool) {
	t, ok := headers[HeaderTrace]
	if !ok {
		return SpanContext{}, false
	}
	s := headers[HeaderSpan]
	tid, err1 := strconv.ParseUint(t, 16, 64)
	sid, err2 := strconv.ParseUint(s, 16, 64)
	if err1 != nil || err2 != nil || tid == 0 {
		return SpanContext{}, false
	}
	return SpanContext{
		TraceID: TraceID(tid),
		SpanID:  SpanID(sid),
		Dropped: headers[HeaderSampled] == "0",
	}, true
}

type ctxKey struct{}

// NewContext returns ctx carrying sc, so nested calls become children.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the current span context, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying the live span itself (in addition to
// its propagated identity), so code deeper in the call path can annotate it
// — the resilience middlewares use this to tag spans with retry counts,
// hedge wins, and breaker rejections.
func ContextWithSpan(ctx context.Context, s *ActiveSpan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the live span in ctx, or nil.
func SpanFromContext(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(spanKey{}).(*ActiveSpan)
	return s
}

// Annotate tags the live span in ctx, if any. Its signature matches
// transport.AnnotateFunc so it can be wired straight into the resilience
// layer's config.
func Annotate(ctx context.Context, key, value string) {
	SpanFromContext(ctx).Annotate(key, value)
}

// Tracer creates spans and submits them to a collector. The zero value is
// unusable; use NewTracer. A nil *Tracer is a valid no-op tracer, so
// services can be wired with tracing disabled at zero cost.
type Tracer struct {
	collector   *Collector
	idBase      uint64
	idCounter   atomic.Uint64
	sampleMille uint32 // per-trace sampling rate in 1/1000ths (1000 = all)
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// NewTracer returns a tracer feeding the given collector.
func NewTracer(c *Collector, opts ...TracerOption) *Tracer {
	t := &Tracer{collector: c, idBase: rand.Uint64() | 1, sampleMille: 1000}
	for _, o := range opts {
		o(t)
	}
	return t
}

// nextID produces process-unique non-zero IDs without global locking.
func (t *Tracer) nextID() uint64 {
	// Mixing a per-process random base with a counter keeps IDs unique in
	// one process and collision-unlikely across processes.
	n := t.idCounter.Add(1)
	id := (t.idBase * 0x9E3779B97F4A7C15) ^ (n * 0xBF58476D1CE4E5B9)
	if id == 0 {
		id = 1
	}
	return id
}

// ActiveSpan is an in-flight span; Finish records it.
type ActiveSpan struct {
	tracer  *Tracer
	span    Span
	dropped bool
	mu      sync.Mutex
	done    bool
}

// StartSpan opens a span. If parent is invalid, a new trace is started and
// the tracer's sampling decision is made; spans of dropped traces still
// carry identity downstream but are never submitted.
func (t *Tracer) StartSpan(service, operation, kind string, parent SpanContext) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := &ActiveSpan{tracer: t}
	s.span.Service = service
	s.span.Operation = operation
	s.span.Kind = kind
	s.span.Start = time.Now()
	s.span.SpanID = SpanID(t.nextID())
	if parent.Valid() {
		s.span.TraceID = parent.TraceID
		s.span.Parent = parent.SpanID
		s.dropped = parent.Dropped
	} else {
		id := t.nextID()
		s.span.TraceID = TraceID(id)
		if t.sampleMille < 1000 {
			// Deterministic per-trace decision from the trace ID.
			s.dropped = uint32(id%1000) >= t.sampleMille
		}
	}
	return s
}

// Context returns the span's propagation identity. Safe on nil.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID, Dropped: s.dropped}
}

// Annotate attaches a key/value measurement tag. Safe on nil.
func (s *ActiveSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.span.Annotations == nil {
		s.span.Annotations = make(map[string]string, 4)
	}
	s.span.Annotations[key] = value
}

// SetError records an error on the span. Safe on nil.
func (s *ActiveSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.span.Err = err.Error()
	s.mu.Unlock()
}

// Finish stamps the duration and submits the span. Idempotent; safe on nil.
func (s *ActiveSpan) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.span.Duration = time.Since(s.span.Start)
	span := s.span
	dropped := s.dropped
	s.mu.Unlock()
	if !dropped {
		s.tracer.collector.Submit(span)
	}
}
