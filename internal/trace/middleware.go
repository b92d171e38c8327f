package trace

import (
	"context"
	"strconv"

	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// ClientMiddleware instruments outgoing calls on the shared transport
// chain, for RPC and REST clients alike: it opens a client span as a child
// of the span in ctx, stamps the span's identity on the call (Call.Trace),
// and records the client-observed duration (which includes network and
// kernel processing on both ends). The live span rides in the context, so
// inner middleware (retry, hedge, breaker) can annotate it.
func ClientMiddleware(t *Tracer, service string) transport.Middleware {
	return func(next transport.Invoker) transport.Invoker {
		return func(ctx context.Context, call *transport.Call) error {
			parent, _ := FromContext(ctx)
			span := t.StartSpan(service, call.Method, KindClient, parent)
			call.Trace = span.Context()
			span.Annotate("payload", strconv.Itoa(len(call.Payload)))
			ctx = ContextWithSpan(NewContext(ctx, span.Context()), span)
			err := next(ctx, call)
			span.SetError(err)
			span.Finish()
			return err
		}
	}
}

// ServerInterceptor instruments incoming RPC requests: it opens a server
// span whose parent is the caller's span (Ctx.Trace), and stores the span
// (and its context) in the request context so handlers' downstream calls
// nest underneath it.
func ServerInterceptor(t *Tracer) rpc.ServerInterceptor {
	return func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
		return serve(t, &ctx.Context, ctx.Service, ctx.Method, ctx.Trace, func() ([]byte, error) {
			return next(ctx, payload)
		})
	}
}

// RESTServerInterceptor is ServerInterceptor for REST services.
func RESTServerInterceptor(t *Tracer) rest.Interceptor {
	return func(ctx *rest.Ctx, body []byte, next rest.Handler) (any, error) {
		op := ctx.Request.Method + " " + ctx.Request.URL.Path
		return serve(t, &ctx.Context, ctx.Service, op, ctx.Trace, func() (any, error) {
			return next(ctx, body)
		})
	}
}

// serve runs handle inside a server span for op, a child of parent, with
// the span in *ctx while it runs.
func serve[R any](t *Tracer, ctx *context.Context, service, op string, parent SpanContext, handle func() (R, error)) (R, error) {
	span := t.StartSpan(service, op, KindServer, parent)
	if span != nil {
		*ctx = ContextWithSpan(NewContext(*ctx, span.Context()), span)
	}
	out, err := handle()
	span.SetError(err)
	span.Finish()
	return out, err
}
