package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/rpc"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/svcutil"
)

// wire_echo sizes, frozen by the sizing pass (README "Sizing").
const (
	echoClients = 2
	// Measured on the reference box: about 125 k echoes/s, so a rep is
	// about 3.8 s.
	echoOps   = 330000 // per client
	echoWarm  = 120000 // per client
	echoPosts = 256    // distinct request values, drawn from the seed
	// echoCheckEvery: one reply in this many is compared with its request.
	echoCheckEvery = 1024

	echoService = "bench.echo"
)

type echoInputs struct {
	posts []socialnetwork.Post
	// warm and ops say which post each call of each client sends.
	warm, ops [][]int32
}

func (in *echoInputs) counts() []int     { return lens(in.ops) }
func (in *echoInputs) warmCounts() []int { return lens(in.warm) }

func (in *echoInputs) due() []time.Duration { return nil }

// generateEcho builds the request values — posts of a timeline's shape: a
// sentence of text, a mention, a URL — and which one each call sends.
func generateEcho(seed uint64) *echoInputs {
	rng := rand.New(rand.NewPCG(seed, 0xEC40))
	in := &echoInputs{}
	for i := 0; i < echoPosts; i++ {
		in.posts = append(in.posts, socialnetwork.Post{
			ID:        fmt.Sprintf("%016x", rng.Uint64()),
			Author:    fmt.Sprintf("user%03d", rng.IntN(400)),
			Text:      "post " + strings.Repeat("lorem ", 4+rng.IntN(12)) + "http://dsb.ly/0a1b2c3d4e",
			Mentions:  []string{fmt.Sprintf("user%03d", rng.IntN(400))},
			URLs:      []string{"http://dsb.ly/0a1b2c3d4e"},
			CreatedAt: rng.Int64(),
		})
	}
	draw := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(rng.IntN(echoPosts))
		}
		return out
	}
	for c := 0; c < echoClients; c++ {
		in.warm = append(in.warm, draw(echoWarm))
		in.ops = append(in.ops, draw(echoOps))
	}
	return in
}

type echoStack struct {
	in     *echoInputs
	client svcutil.Caller
	// reply is each client's reply value, reused across ops.
	reply []socialnetwork.Post
}

// boot starts the echo tier the way every application tier starts
// (core.App.StartRPC + svcutil.Handle) and wires the client the way every
// application hop is wired (core.App.RPC: lb.Balanced → transport chain →
// rpc.Client → rpc.Mem). The network is in-memory.
func (in *echoInputs) boot(app *core.App, lap func()) (stack, error) {
	_, err := app.StartRPC(echoService, func(s *rpc.Server) {
		svcutil.Handle(s, "Echo", func(ctx *rpc.Ctx, req *socialnetwork.Post) (*socialnetwork.Post, error) {
			return req, nil
		})
	})
	if err != nil {
		return nil, err
	}
	client, err := app.RPC("client", echoService)
	if err != nil {
		return nil, err
	}
	lap()
	return &echoStack{in: in, client: client, reply: make([]socialnetwork.Post, len(in.ops))}, nil
}

func (st *echoStack) warm(ctx context.Context, client, i int) error {
	return st.echo(ctx, client, i, st.in.warm[client][i])
}

func (st *echoStack) do(ctx context.Context, client, i int) error {
	return st.echo(ctx, client, i, st.in.ops[client][i])
}

func (st *echoStack) echo(ctx context.Context, client, i int, post int32) error {
	req, resp := &st.in.posts[post], &st.reply[client]
	if err := st.client.Call(ctx, "Echo", req, resp); err != nil {
		return err
	}
	if i%echoCheckEvery != 0 {
		return nil
	}
	// Compared on the wire encoding, which is what had to survive the trip.
	want, err := codec.Marshal(req)
	if err != nil {
		return err
	}
	got, err := codec.Marshal(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%w: echo returned %+v for %+v", errCheck, *resp, *req)
	}
	return nil
}

func (st *echoStack) drain() error  { return nil }
func (st *echoStack) verify() error { return nil }
func (st *echoStack) close()        {}
