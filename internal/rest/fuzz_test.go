package rest

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"testing"

	"dsb/internal/rpc"
)

// requestMethods parses in as the server does and returns the method of each
// request read whole, in order: what the responses to in answer.
func requestMethods(in []byte) []string {
	var methods []string
	br := bufio.NewReader(bytes.NewReader(in))
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

// FuzzRESTConn feeds a server connection over rpc.Mem whatever a peer could
// send, and after it a line that never ends. The server must not panic; it
// must read a caller's span whole or not at all, whatever Dsb-Trace and
// Dsb-Span hold; it must answer only in well-formed HTTP/1.1, one response
// per request it read (plus any interim 100 Continue, and one refusal of
// what it could not read); and it must give up on the endless line once it
// passes the header bound and end the connection, having read no more than
// the input, the largest body it accepts and the bound.
//
// The seeds are the shapes the server treats differently; `make check` runs
// the target for ten seconds.
func FuzzRESTConn(f *testing.F) {
	for _, seed := range []string{
		"GET /items/a HTTP/1.1\r\nHost: x\r\n\r\nGET /items/b%20c HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n\"hello\"",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n\"ab\r\n1\r\n\"\r\n0\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n\"\"",
		"HEAD /items/a HTTP/1.1\r\nHost: x\r\n\r\nHEAD /nowhere HTTP/1.1\r\n\r\n",
		"GET /items/a HTTP/1.0\r\n\r\nGET /items/b HTTP/1.1\r\n\r\n",
		"GET /items/a HTTP/1.1\r\nConnection: close\r\n\r\nGET /items/b HTTP/1.1\r\n\r\n",
		"DELETE /items/a HTTP/1.1\r\n\r\nGET /panic HTTP/1.1\r\n\r\n",
		"POST /echo HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
		"POST /nowhere HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /items/a HTTP/1.1\r\n\r\n",
		"GET /items/a HTTP/2.0\r\n\r\n",
		"GET /items/a HTTP/1.1\r\nX-Folded: a\r\n b\r\n\r\n",
		"garbage\r\n\r\n",
		"",
		"GET /items/a HTTP/1.1\r\nDsb-Trace: zz\r\nDsb-Span: 1\r\n\r\n",
		"GET /items/a HTTP/1.1\r\nDsb-Trace: 123456789abcdef01\r\nDsb-Span: 1\r\n\r\n",
		"GET /items/a HTTP/1.1\r\nDsb-Trace: 0\r\nDsb-Span: 0\r\n\r\n",
		"GET /items/a HTTP/1.1\r\nDsb-Trace: abc\r\nDsb-Span: def\r\nDsb-Deadline: soon\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			in = in[:64<<10] // well inside the header bound: the endless line is what crosses it
		}
		n := &countingNet{Network: rpc.NewMem()}
		s := NewServer("fuzz")
		s.Handle("POST /echo", func(ctx *Ctx, body []byte) (any, error) { return string(body), nil })
		s.Handle("GET /items/{id}", func(ctx *Ctx, body []byte) (any, error) {
			if tr := ctx.Trace; (tr.TraceID == 0) != (tr.SpanID == 0) {
				t.Errorf("the caller's span read as %+v: half a parent", tr)
			}
			return ctx.PathValue("id"), nil
		})
		s.Handle("GET /panic", func(ctx *Ctx, body []byte) (any, error) { panic("fuzz") })
		addr, err := s.Start(n, "fuzz:1")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		conn, err := n.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		bound := int64(len(in)) + maxBody + maxHeaderBytes + 2*readBufSize
		go func() {
			if _, err := conn.Write(in); err != nil {
				return
			}
			line := bytes.Repeat([]byte{'x'}, 32<<10)
			// A connection buffers less than 1 MiB, so a server still reading
			// when this much is written has read past the bound: stop it.
			for written := int64(len(in)); written < bound+1<<20; written += int64(len(line)) {
				if _, err := conn.Write(line); err != nil {
					return // the server hung up
				}
			}
			conn.Close()
		}()
		out, err := io.ReadAll(conn)
		if read := n.read.Load(); read > bound {
			t.Fatalf("the server read %d bytes, past the %d the input, a body and the header bound allow", read, bound)
		}
		if err != nil {
			t.Fatal(err)
		}

		methods := requestMethods(in)
		br := bufio.NewReader(bytes.NewReader(out))
		for k := 0; ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			var asked *http.Request
			if k < len(methods) {
				asked = &http.Request{Method: methods[k]}
			}
			res, err := http.ReadResponse(br, asked)
			if err != nil {
				t.Fatalf("response %d does not parse: %v\nin  %q\nout %q", k, err, in, out)
			}
			if res.Proto != "HTTP/1.1" {
				t.Fatalf("response %d is %s, want HTTP/1.1\nout %q", k, res.Proto, out)
			}
			if _, err := io.Copy(io.Discard, res.Body); err != nil {
				t.Fatalf("response %d's body: %v\nout %q", k, err, out)
			}
			if res.StatusCode != http.StatusContinue {
				k++
			}
			if k > len(methods)+1 {
				t.Fatalf("%d responses to %d requests\nin  %q\nout %q", k, len(methods), in, out)
			}
		}
	})
}
