package rpc

// Header returns a request header value, or "".
func (c *Ctx) Header(key string) string { return c.Headers[key] }

// OneWayErrors returns how many one-way requests failed server-side. The
// caller of a one-way RPC only sees send failures; everything after the
// frame is on the wire — admission sheds, missing methods, handler errors —
// lands here instead of in a reply.
func (s *Server) OneWayErrors() int64 { return s.onewayErrs.Load() }

// Done is closed when the call completes.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Recv returns the next client item, io.EOF after the client half-closed.
func (st *ServerStream) Recv() ([]byte, error) { return st.core.recv() }
