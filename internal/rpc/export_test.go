package rpc

// Done is closed when the call completes.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Recv returns the next client item, io.EOF after the client half-closed.
func (st *ServerStream) Recv() ([]byte, error) { return st.core.recv() }
