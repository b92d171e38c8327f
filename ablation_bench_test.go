package dsb_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// hand-rolled wire codec vs stdlib encoders, connection pooling, tracing
// overhead on the live stack, and the simulator's provisioning (balanced vs
// naive).

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"testing"
	"time"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/graph"
	"dsb/internal/services/socialnetwork"
	"dsb/internal/sim"
)

type wirePayload struct {
	ID      uint64
	Author  string
	Text    string
	Tags    []string
	Scores  map[string]int64
	Blob    []byte
	Created int64
}

func samplePayload() wirePayload {
	return wirePayload{
		ID:     42,
		Author: "ablation-user",
		Text:   "a post body of realistic length for the social network benchmark suite",
		Tags:   []string{"bench", "codec", "ablation"},
		Scores: map[string]int64{"likes": 10, "reposts": 2},
		Blob:   bytes.Repeat([]byte{0xCD}, 512),
	}
}

// BenchmarkAblationCodec compares the suite's wire codec against stdlib
// gob and JSON for the round trip every RPC pays.
func BenchmarkAblationCodec(b *testing.B) {
	in := samplePayload()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := codec.Marshal(in)
			if err != nil {
				b.Fatal(err)
			}
			var out wirePayload
			if err := codec.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(in); err != nil {
				b.Fatal(err)
			}
			var out wirePayload
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(in)
			if err != nil {
				b.Fatal(err)
			}
			var out wirePayload
			if err := json.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTracing measures the distributed tracer's overhead on a
// real composePost path; the paper reports <0.1% on end-to-end latency for
// its out-of-band collector (ours is in-process, so some overhead shows).
func BenchmarkAblationTracing(b *testing.B) {
	for _, tracing := range []bool{false, true} {
		name := "off"
		if tracing {
			name = "on"
		}
		b.Run("tracing-"+name, func(b *testing.B) {
			app := core.NewApp("ablation", core.Options{DisableTracing: !tracing, TraceBuffer: 1 << 16})
			defer app.Close()
			sn, err := socialnetwork.New(app, socialnetwork.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := sn.User.Call(ctx, "Register", socialnetwork.RegisterReq{Username: "u", Password: "p"}, nil); err != nil {
				b.Fatal(err)
			}
			var login socialnetwork.LoginResp
			if err := sn.User.Call(ctx, "Login", socialnetwork.LoginReq{Username: "u", Password: "p"}, &login); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sn.Compose.Call(ctx, "Compose", socialnetwork.ComposePostReq{
					Token: login.Token, Text: "tracing ablation post",
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProvisioning contrasts naive profile-sized worker pools
// with the paper's Section 3.8 balanced provisioning at equal total load.
func BenchmarkAblationProvisioning(b *testing.B) {
	run := func(balanced bool) sim.Result {
		d, err := sim.NewDeployment(sim.New(), sim.Config{App: graph.SocialNetwork(), WorkerScale: 0.25, Seed: 99})
		if err != nil {
			b.Fatal(err)
		}
		if balanced {
			d.BalanceWorkers(400, 1.3)
		}
		return d.RunOpenLoop(350, 2*time.Second)
	}
	for _, balanced := range []bool{false, true} {
		name := "naive"
		if balanced {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = run(balanced)
			}
			b.ReportMetric(float64(res.E2E.P99)/1e6, "p99-ms")
			b.ReportMetric(res.NetFrac*100, "net-%")
		})
	}
}

// BenchmarkAblationNICQueues shows why the simulator models the kernel/NIC
// as a finite station: with ample NIC workers the Fig 15 high-load network
// share never materializes.
func BenchmarkAblationNICQueues(b *testing.B) {
	run := func(extraNIC bool) sim.Result {
		d, err := sim.NewDeployment(sim.New(), sim.Config{App: graph.SocialNetwork(), WorkerScale: 0.25, Seed: 98})
		if err != nil {
			b.Fatal(err)
		}
		if extraNIC {
			for _, svc := range d.Services() {
				for _, in := range d.Service(svc).Instances {
					in.NIC.SetWorkers(64)
				}
			}
		}
		return d.RunOpenLoop(750, 2*time.Second)
	}
	for _, extra := range []bool{false, true} {
		name := "nic2"
		if extra {
			name = "nic64"
		}
		b.Run(name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = run(extra)
			}
			b.ReportMetric(res.NetFrac*100, "net-%")
			b.ReportMetric(float64(res.E2E.P99)/1e6, "p99-ms")
		})
	}
}
