GO ?= go

.PHONY: build test vet fmt-check lines census race check alloc-guard conn-stress fuzz-frame shard-balance bench bench-smoke codecgen codecgen-check ledger pair

build:
	$(GO) build ./...

# Tests that wait — on a timer, a lease, a TTL, a queue — run on virtual time
# (internal/vtime: a testing/synctest bubble, which go1.24 builds only under
# GOEXPERIMENT=synctest). These targets set it, so bubbles run in-process and
# vet sees the tagged file; a plain `go test ./...` cannot, and there vtime.Run
# re-executes each such test alone in a child test binary built with it, once
# per package — same bodies, same assertions, one link per package slower,
# plus one rebuild of the standard library (about half a minute) the first
# time a GOCACHE sees it.
test race vet check conn-stress: export GOEXPERIMENT = synctest

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Hand-written non-test Go: what a PR's line delta is counted over. Tests,
# the generated marshalers, the benchmark and test fixtures are out.
HANDWRITTEN = grep -E '\.go$$' | grep -v -e '_test\.go$$' -e '/wire_gen\.go$$' -e '^benchmark/' -e '^testdata/' -e '/testdata/'

# gofmt gate over the hand-written set: any file it names fails the check.
fmt-check:
	@out=$$(git ls-files -co --exclude-standard | $(HANDWRITTEN) | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# make lines [BASE=<ref>]: hand-written non-test Go lines in the tree and,
# with BASE, the net and per-file delta against that commit.
lines:
	@files=$$(git ls-files -co --exclude-standard | $(HANDWRITTEN)); \
	here=$$(cat $$files | wc -l); \
	echo "hand-written non-test Go lines: $$here"; \
	if [ -n "$(BASE)" ]; then \
		base=$$(git ls-tree -r --name-only $(BASE) | $(HANDWRITTEN) | sed 's|^|$(BASE):|' | xargs git show | wc -l); \
		echo "at $(BASE): $$base, net $$((here - base))"; \
		for f in $$( { echo "$$files"; git ls-tree -r --name-only $(BASE) | $(HANDWRITTEN); } | sort -u); do \
			now=0; [ -f "$$f" ] && now=$$(wc -l < "$$f"); \
			was=$$(git show "$(BASE):$$f" 2>/dev/null | wc -l); \
			[ "$$now" -ne "$$was" ] && printf '  %+5d  %s\n' $$((now - was)) "$$f"; \
		done | sort -n; \
	fi

# The two censuses, and the fixture module each is pinned on; tier-1 runs the
# same tests. The reachability census (reach_test.go): what no non-test
# package reaches under internal/, every Config field no code sets, and every
# unexported struct field non-test code writes but never reads, must equal
# the allowlist there, each entry with its reason. The call-graph census
# (callgraph_test.go) reads each app's tiers, handlers and client calls off
# the same type-check and fails on a handler no non-test call reaches (unless
# allowlisted as the only read of its tier's state), a call of a method its
# tier does not serve, a call site under internal/services whose target or
# method is no constant it can resolve, and a stale allowlist entry; and,
# per store, cache and broker tier, on state code under internal/services
# writes that no non-test code reads (a stored field, number or body, a
# cache key prefix, a topic; unless allowlisted in unread with its reason),
# a store write under internal/services with no constant collection, and a
# stale unread entry. -v prints the allowlists, the names only benchmark/
# keeps alive, the settable-values count, the per-app tier/edge and state
# table, the handler wire types with no generated codec, and the call sites
# outside internal/services the call-graph census counts on every tier.
census:
	$(GO) test -count=1 -run 'TestReachCensus|TestCallGraphCensus' -v .

# Every package under the race detector, not a hand-kept list: a package
# left off a list is a package nobody checked. The pinned alloc budgets read
# their package's raceEnabled constant (race_on_test.go / race_off_test.go)
# and skip under the detector; the live experiments' shape tests run on
# virtual time, which the detector's slowdown does not touch, and assert the
# same numbers here as in `make test`.
race:
	$(GO) test -race ./...

# Regenerate the fast-path marshalers (wire_gen.go) from the registered
# message types; codecgen-check fails if any are stale against the source
# structs, so hand edits to a message type can't silently fall back to the
# reflect plans (or worse, desync the generated encoding); it also holds the
# emitter — wire and JSON output both — to its golden fixture.
codecgen:
	$(GO) run ./cmd/codecgen

codecgen-check:
	$(GO) run ./cmd/codecgen -check
	$(GO) test -count=1 ./cmd/codecgen/

# Alloc-regression guards for the wire hot path: frame encode/decode has a
# pinned budget (0 allocs/op encode; 0 to read a buffered frame, which the
# connection's reader owns and parses in place — a request's deadline and
# trace pair are fixed fields of its call header), a full
# echo round trip over the in-memory network must allocate at most the
# server-side request context, which must stay within 96 bytes
# (TestCtxSize). The in-memory connection under
# all of it must itself be allocation-free once its buffers have grown, and a
# parked one must stay within its live-heap budget, as must an open idle
# stream (heap and goroutines, both ends): an edge holds one per concurrent
# call and one per open stream. A hop
# to a store tier (kv Get, docstore Get and Put through the svcutil clients)
# has its own budget: a typed reply the connection writer encodes, one string
# copy per decode and, for docstore, no Doc on the server's
# side at all — its handlers' own allocations (Get, a replacing Put, a Put of
# a new ID, ListPrepend onto a long list) and the live heap a stored document
# costs, with no index and once a Find has built one, are pinned. A push
# stream's broker-side wait leases a ready message with no timer armed
# (TestReceiveWaitReadyAllocGuard).
# A relay tier may add no more to a path than a typed hop does, a REST round
# trip has a budget of its own, and one warmed timeline page through the REST
# front door — eight hops, the page never decoded between the post cache and
# the caller — has an end-to-end object budget. The search tier's index has a
# live-heap budget per indexed post (TestSearchIndexFootprint): posting lists
# over dense document numbers, not a map per term.
alloc-guard:
	$(GO) test -run 'TestFrameAllocGuard|TestEchoAllocGuard|TestCtxSize|TestMemConnAllocGuard|TestIdleConnFootprint|TestIdleStreamFootprint' -count=1 ./internal/rpc/
	$(GO) test -run 'TestServiceAllocGuard|TestStoredDocFootprint' -count=1 ./internal/docstore/
	$(GO) test -run TestReceiveWaitReadyAllocGuard -count=1 ./internal/mq/
	$(GO) test -run 'TestStoreHopAllocGuard|TestRelayHopAllocGuard' -count=1 ./internal/svcutil/
	$(GO) test -run TestRESTAllocGuard -count=1 ./internal/rest/
	$(GO) test -run 'TestTimelinePageAllocGuard|TestSearchIndexFootprint' -count=1 ./internal/services/socialnetwork/

# Ring-imbalance guard: at the default 128 vnodes, the consistent-hash
# ring must spread keys over 8 shards within +/-15% of even; a hash or
# vnode regression that skews placement fails TestRingBalanceGuard.
shard-balance:
	$(GO) test -run TestRingBalanceGuard -count=1 ./internal/shard/

# Every app, experiment and test rides rpc.Mem's connection, and its
# wake-ups (close, deadline, capacity) are timing-dependent; every caller
# goroutine of an edge, on whichever P it runs, shares its ConnStack's per-P
# idle lists; a frame too large for a connection's read buffer is read into
# a borrowed buffer, across reads it shares with the frames around it, while
# the ring under it is borrowed and returned; and a stream's teardown races
# its handler's Send, the client's credit grants and its Cancel on one
# connection: repeat the net.Conn contract test, the per-P list test, the
# split- and pipelined-frame tests and the stream teardown tests (client
# cancel, conn death, Server.Close waking parked handlers, concurrent
# send/recv/cancel) under the race detector.
conn-stress:
	$(GO) test -race -run 'TestMemConnContract|TestConnStackPerPLists|TestFramesSplitAcrossReads|TestPipelinedRawFramesAnsweredInOrder' -count=20 ./internal/rpc/
	$(GO) test -race -run 'TestStreamClientCancel|TestStreamConnDeathFailsBothEnds|TestServerCloseWakesParkedStreams|TestStreamSendRecvCancelConcurrent' -count=20 ./internal/rpc/

# A call reads its own reply, so the frame reader parses a peer's bytes on
# the calling goroutine of every hop, and a connection is one state machine —
# calls, or one stream — that a peer drives with whatever frames it likes;
# a REST server connection parses whatever HTTP a peer sends, up to a header
# bound; and the broker's handlers take whatever sequence of requests its
# clients send, and must keep every queue's books balanced through it; and a
# timeline read splices cached post and ID-list bytes into its reply once the
# generated skippers pass them, which must step over exactly what the reflect
# plans do: ten seconds of hostile input for each, on top of the committed
# seeds (internal/rpc/testdata/fuzz, the f.Add lists of FuzzRESTConn,
# FuzzBrokerService and FuzzGeneratedSkip), which plain `go test` already
# replays.
fuzz-frame:
	$(GO) test -run '^$$' -fuzz FuzzFrameReader -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz FuzzStreamConn -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz FuzzRESTConn -fuzztime 10s ./internal/rest/
	$(GO) test -run '^$$' -fuzz FuzzBrokerService -fuzztime 10s ./internal/mq/
	$(GO) test -run '^$$' -fuzz FuzzGeneratedSkip -fuzztime 10s ./internal/codec/

check: vet fmt-check race build test alloc-guard conn-stress fuzz-frame shard-balance codecgen-check

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# One wall-clock pass over every live-stack experiment — the numbers
# EXPERIMENTS.md quotes next to the virtual-time ones the shape tests assert,
# and the quick signal that the real service path (transport, lb, control
# plane) still behaves on a real clock — then the three simulator sweeps
# whole, which TestHeavyExperimentsSmoke runs only at their crossover points.
bench-smoke:
	$(GO) test -run '^$$' -bench='QueryDiversity|RPCvsREST|SlowServerResilience|AutoscaleLive|ChaosRecovery|HotKeyStampede|TailAtScale|ClusterParity|AsyncFanout' -benchtime=1x .
	$(GO) test -run '^$$' -bench='Fig9Swarm|Fig13Brawny|Fig17Backpressure' -benchtime=1x .

# The perf ledger in one command (see benchmark/README.md): every workload
# untraced (the six end-to-end metrics) and traced (the per-layer rungs), as
# BENCHMARK.json runs them. The final JSON line of each of the eight runs is
# collected, one per line, in .bench_build/BENCH_$(PR).json, so a PR's
# before/after is `make ledger` on each commit. About eight minutes.
PR ?= $(shell git rev-parse --short HEAD)
LEDGER = .bench_build/BENCH_$(PR).json
ledger:
	@mkdir -p .bench_build && : > $(LEDGER)
	@for w in social_read social_mixed ecommerce_checkout wire_echo; do for tr in 0 1; do \
		echo "ledger: $$w --trace $$tr"; \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 18 --trace $$tr > .bench_build/ledger.out || exit 1; \
		printf '{"workload":"%s","trace":%s,"result":%s}\n' $$w $$tr "$$(tail -n 1 .bench_build/ledger.out)" >> $(LEDGER); \
	done; done
	@rm -f .bench_build/ledger.out; echo "wrote $(LEDGER)"

# make pair BASE=<ref> [W=<workload>] [N=10] [S=<first seed>]: the protocol a
# perf claim is judged by. Builds BASE's and the working tree's benchmark, runs
# N alternating pairs on shared seeds (--seconds 18 --trace 0), appends every
# run's metric lines to .bench_build/PAIR_<base>_<W>.tsv and prints, per metric,
# parent median [q1 .. q3], change median, delta, wins/N, whether the change
# held against BENCHMARK.json's bound (ok, WORSE, or unresolved when the
# parent's own spread is wider than the bound) and whether the pair rule
# holds. About a minute a pair.
W ?= ecommerce_checkout
N ?= 10
S ?= 1
pair:
	@sh scripts/pair.sh "$(BASE)" "$(W)" "$(N)" "$(S)"
