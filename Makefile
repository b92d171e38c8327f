GO ?= go

.PHONY: build test vet race check alloc-guard conn-stress shard-balance bench bench-smoke codecgen codecgen-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The call-path packages carry the concurrency-heavy code (connection
# pools, hedges, breakers, admission queues, fault injection, lease
# heartbeats, broker leases and consumer groups, and the stream
# send/recv/credit machinery); run them under the race detector, along
# with the codec the stream frames ride on, the applications refactored
# onto the sharded live-stack wiring, and the broker-backed async paths.
race:
	$(GO) test -race ./internal/rpc/... ./internal/transport/... ./internal/rest/... ./internal/lb/... ./internal/core/... ./internal/controlplane/... ./internal/loadgen/... ./internal/fault/... ./internal/registry/... ./internal/coalesce/... ./internal/svcutil/... ./internal/docstore/... ./internal/kv/... ./internal/codec/... ./internal/shard/... ./internal/mq/... ./internal/services/media/... ./internal/services/ecommerce/... ./internal/services/banking/... ./internal/services/swarm/... ./internal/services/socialnetwork/...

# Regenerate the fast-path marshalers (wire_gen.go) from the registered
# message types; codecgen-check fails if any are stale against the source
# structs, so hand edits to a message type can't silently fall back to the
# reflect plans (or worse, desync the generated encoding).
codecgen:
	$(GO) run ./cmd/codecgen

codecgen-check:
	$(GO) run ./cmd/codecgen -check

# Alloc-regression guards for the wire hot path: frame encode/decode has a
# pinned budget (0 allocs/op encode, frame+payload only on decode), a full
# echo round trip over the in-memory network must allocate at most the
# server-side request context, and WAL appends must reuse their encode
# scratch instead of re-marshaling per record. The in-memory connection under
# all of it must itself be allocation-free once its buffers have grown.
alloc-guard:
	$(GO) test -run 'TestFrameAllocGuard|TestEchoAllocGuard|TestMemConnAllocGuard' -count=1 ./internal/rpc/
	$(GO) test -run TestWALAppendBufferReuse -count=1 ./internal/docstore/

# Ring-imbalance guard: at the default 128 vnodes, the consistent-hash
# ring must spread keys over 8 shards within +/-15% of even; a hash or
# vnode regression that skews placement fails TestRingBalanceGuard.
shard-balance:
	$(GO) test -run TestRingBalanceGuard -count=1 ./internal/shard/

# Every app, experiment and test rides rpc.Mem's connection, and its
# wake-ups (close, deadline, capacity) are timing-dependent: repeat its
# net.Conn contract test under the race detector.
conn-stress:
	$(GO) test -race -run TestMemConnContract -count=20 ./internal/rpc/

check: vet race build test alloc-guard conn-stress shard-balance codecgen-check

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# One pass over the live-stack benchmarks only — the quick signal that the
# real service path (transport, lb, control plane) still behaves, without
# re-deriving every simulator figure.
bench-smoke:
	$(GO) test -bench='QueryDiversity|RPCvsREST|SlowServerResilience|AutoscaleLive|ChaosRecovery|HotKeyStampede|TailAtScale|ClusterParity|AsyncFanout' -benchtime=1x .
	$(GO) test -run 'TestClusterParityShape|TestAsyncFanoutShape|TestBrokerCrashShape|TestPushShape' -count=1 ./internal/experiments/
