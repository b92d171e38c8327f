package fault

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
	"dsb/internal/vtime"
)

// startEcho boots an echo server at addr, for its caller to close.
func startEcho(t *testing.T, n rpc.Network, addr string) *rpc.Server {
	t.Helper()
	s := rpc.NewServer(ServiceOf(addr))
	s.Handle("Echo", func(ctx *rpc.Ctx, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if _, err := s.Start(n, addr); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMiddlewareInjectsErrorsAndLatency(t *testing.T) {
	inj := NewInjector(7)
	terminal := func(ctx context.Context, call *transport.Call) error {
		call.Reply = []byte("ok")
		return nil
	}
	inv := transport.Build(terminal, inj.Middleware("a"))

	// No rules: pass-through.
	call := transport.NewCall("b", "M", nil)
	if err := inv(context.Background(), call); err != nil || string(call.Reply) != "ok" {
		t.Fatalf("clean call: %q, %v", call.Reply, err)
	}

	// Deterministic error injection for the matching pair only.
	remove := inj.Add(Rule{From: "a", To: "b", ErrCode: transport.CodeUnavailable})
	if err := inv(context.Background(), transport.NewCall("b", "M", nil)); !transport.IsCode(err, transport.CodeUnavailable) {
		t.Fatalf("err = %v, want CodeUnavailable", err)
	}
	if err := inv(context.Background(), transport.NewCall("c", "M", nil)); err != nil {
		t.Fatalf("non-matching target hit the fault: %v", err)
	}
	remove()

	// Injected latency is observable and removable.
	remove = inj.Add(Rule{To: "b", Latency: 30 * time.Millisecond})
	startAt := time.Now()
	if err := inv(context.Background(), transport.NewCall("b", "M", nil)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(startAt); d < 25*time.Millisecond {
		t.Fatalf("latency rule added only %v", d)
	}
	remove()
}

func TestMiddlewareBlackholeBurnsDeadline(t *testing.T) {
	inj := NewInjector(7)
	inv := transport.Build(func(ctx context.Context, call *transport.Call) error {
		return nil
	}, inj.Middleware("a"))
	defer inj.Add(Rule{From: "a", To: "b", Blackhole: true})()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	startAt := time.Now()
	err := inv(ctx, transport.NewCall("b", "M", nil))
	if !transport.IsCode(err, transport.CodeDeadline) {
		t.Fatalf("err = %v, want CodeDeadline", err)
	}
	if d := time.Since(startAt); d < 25*time.Millisecond {
		t.Fatalf("blackhole returned after only %v, want full deadline", d)
	}
}

func TestResetKillsNewConns(t *testing.T) {
	inj := NewInjector(7)
	net := inj.Wrap(rpc.NewMem())
	defer startEcho(t, net, "b:1").Close()

	disarm := inj.Add(Rule{From: "a", To: "b", Reset: true})
	c, err := net.Bind("a").Dial("b:1")
	if err != nil {
		t.Fatalf("dial during reset rule: %v (reset must accept, then kill)", err)
	}
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read on reset conn succeeded")
	}
	disarm()

	// Unmatched dialer identity and post-disarm dials get live conns.
	cl := rpc.NewClient(net.Bind("a"), "b", "b:1")
	defer cl.Close()
	out, err := cl.CallRaw(context.Background(), "Echo", []byte("hi"))
	if err != nil || string(out) != "hi" {
		t.Fatalf("after disarm: %q, %v", out, err)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	inj := NewInjector(7)
	net := inj.Wrap(rpc.NewMem())
	defer startEcho(t, net, "b:1").Close()

	ca := rpc.NewClient(net.Bind("a"), "b", "b:1")
	defer ca.Close()
	cc := rpc.NewClient(net.Bind("c"), "b", "b:1")
	defer cc.Close()

	// Warm both conns so the partition hits established connections.
	for _, c := range []*rpc.Client{ca, cc} {
		if _, err := c.CallRaw(context.Background(), "Echo", []byte("w")); err != nil {
			t.Fatal(err)
		}
	}

	disarm := inj.Add(Rule{From: "a", To: "b", Partition: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := ca.CallRaw(ctx, "Echo", []byte("x")); !rpc.IsCode(err, rpc.CodeDeadline) {
		t.Fatalf("partitioned caller err = %v, want CodeDeadline", err)
	}
	// The partition is asymmetric: c→b is untouched.
	if _, err := cc.CallRaw(context.Background(), "Echo", []byte("y")); err != nil {
		t.Fatalf("unpartitioned caller failed: %v", err)
	}
	disarm()

	// Healed: the same pooled conn works again (dropped frames stay dropped).
	out, err := ca.CallRaw(context.Background(), "Echo", []byte("z"))
	if err != nil || string(out) != "z" {
		t.Fatalf("after heal: %q, %v", out, err)
	}
}

func TestStallDelaysBytes(t *testing.T) {
	inj := NewInjector(7)
	net := inj.Wrap(rpc.NewMem())
	defer startEcho(t, net, "b:1").Close()
	cl := rpc.NewClient(net.Bind("a"), "b", "b:1")
	defer cl.Close()
	if _, err := cl.CallRaw(context.Background(), "Echo", []byte("w")); err != nil {
		t.Fatal(err)
	}

	defer inj.Add(Rule{From: "a", To: "b", Stall: 25 * time.Millisecond})()
	startAt := time.Now()
	if _, err := cl.CallRaw(context.Background(), "Echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(startAt); d < 20*time.Millisecond {
		t.Fatalf("stalled call took only %v", d)
	}
}

// Two scenarios built in the same order over same-seed injectors must
// resolve to byte-identical timelines — the reproducibility contract chaos
// assertions rely on.
func TestScenarioDeterministicSchedule(t *testing.T) {
	build := func(seed int64) string {
		inj := NewInjector(seed)
		s := NewScenario(inj)
		s.At(100*time.Millisecond, Blackhole("a", "b"))
		s.Between(200*time.Millisecond, 400*time.Millisecond, Reset("", "b"))
		s.During(50*time.Millisecond, 300*time.Millisecond, Stall("a", "", 5*time.Millisecond))
		s.Between(0, time.Second, Latency("a", "b", time.Millisecond, time.Millisecond))
		s.Between(0, time.Second, Action("crash(b:1)", func() {}))
		return s.String()
	}
	one, two := build(42), build(42)
	if one != two {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", one, two)
	}
	if other := build(43); other == one {
		t.Fatalf("different seeds collided on schedule:\n%s", one)
	}
}

func TestScenarioPlayArmsAndDisarms(t *testing.T) {
	vtime.Run(t, func() {
		inj := NewInjector(1)
		s := NewScenario(inj)
		var fired atomic.Bool
		s.During(5*time.Millisecond, 60*time.Millisecond, Partition("a", "b"))
		s.At(20*time.Millisecond, Action("mark", func() { fired.Store(true) }))

		start := time.Now()
		done := s.Play(context.Background())
		vtime.Advance(5*time.Millisecond - time.Nanosecond)
		if inj.Active() != 0 {
			t.Fatal("During armed its rule early")
		}
		vtime.Advance(time.Nanosecond)
		vtime.Wait()
		if inj.Active() != 1 {
			t.Fatal("During did not arm its rule at 5ms")
		}
		<-done
		if took := time.Since(start); took != 60*time.Millisecond {
			t.Fatalf("Play finished at %v, want at its last step, 60ms", took)
		}
		if inj.Active() != 0 {
			t.Fatalf("rules left armed after play: %d", inj.Active())
		}
		if !fired.Load() {
			t.Fatal("Action step never ran")
		}
	})
}

func TestScenarioPlayCancelDisarms(t *testing.T) {
	vtime.Run(t, func() {
		inj := NewInjector(1)
		s := NewScenario(inj)
		s.During(time.Millisecond, time.Hour, Blackhole("a", ""))
		ctx, cancel := context.WithCancel(context.Background())
		done := s.Play(ctx)
		vtime.Advance(time.Millisecond)
		vtime.Wait()
		if inj.Active() != 1 {
			t.Fatal("rule not armed at 1ms")
		}
		cancel()
		<-done // an hour early
		if inj.Active() != 0 {
			t.Fatalf("canceled play left %d rules armed", inj.Active())
		}
	})
}
