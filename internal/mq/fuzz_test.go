package mq

import (
	"bytes"
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/rpc"
)

// brokerMethods are the handlers FuzzBrokerService drives, picked by a
// step's first byte.
var brokerMethods = []string{"Publish", "Mirror", "Subscribe", "Consume", "Ack", "Nack"}

// brokerRequest returns a fresh request of the type method decodes.
func brokerRequest(method string) any {
	switch method {
	case "Publish":
		return &PublishReq{}
	case "Mirror":
		return &MirrorReq{}
	case "Subscribe":
		return &SubscribeReq{}
	case "Consume":
		return &ConsumeReq{}
	default:
		return &AckReq{}
	}
}

// step encodes one script step: the method's index, the payload's length
// and the payload.
func step(t testing.TB, method string, req any) []byte {
	payload, err := codec.Marshal(req)
	if err != nil || len(payload) > 255 {
		t.Fatalf("step %s: %d bytes, %v", method, len(payload), err)
	}
	return append([]byte{byte(slices.Index(brokerMethods, method)), byte(len(payload))}, payload...)
}

// FuzzBrokerService drives one broker, served on rpc.Mem, through a script
// of (method, payload) steps over Publish, Mirror, Subscribe, Consume, Ack
// and Nack: each step is a method byte, a length byte and that many payload
// bytes. No step may panic a handler; a payload the typed decoder rejects
// gets CodeBadRequest; and after every step every queue on the broker
// accounts for each message it was handed exactly once — queued + in flight
// + acked + dead-lettered == published. A Consume's wait is cleared before
// it is sent, so no step parks.
func FuzzBrokerService(f *testing.F) {
	sub := func(group string, attempts, depth int) []byte {
		return step(f, "Subscribe", SubscribeReq{Topic: "t", Group: group, MaxAttempts: attempts, MaxDepth: depth})
	}
	pub := func(key, body string) []byte {
		return step(f, "Publish", PublishReq{Topic: "t", Key: key, Body: []byte(body)})
	}
	consume := func(group string) []byte {
		return step(f, "Consume", ConsumeReq{Topic: "t", Group: group, LeaseNs: int64(1 << 40)})
	}
	settle := func(method, group string, id uint64, key string) []byte {
		return step(f, method, AckReq{Topic: "t", Group: group, ID: id, Key: key})
	}
	for _, seed := range map[string][][]byte{
		"publish-consume-ack": {sub("g", 0, 0), pub("", "a"), consume("g"), settle("Ack", "g", 1, "")},
		"nack-to-dead-letter": {sub("g", 2, 0), pub("", "a"), consume("g"), settle("Nack", "g", 1, ""), consume("g"), settle("Nack", "g", 1, "")},
		"keyed-dedup-and-settle": {sub("g", 0, 0), pub("k", "a"), pub("k", "a"), consume("g"),
			settle("Ack", "g", 0, "k"), step(f, "Mirror", MirrorReq{Topic: "t", Key: "k", Body: []byte("a")})},
		"mirror-then-nack-by-key": {sub("g", 0, 0), step(f, "Mirror", MirrorReq{Topic: "t", Key: "m", Body: []byte("b")}),
			settle("Nack", "g", 0, "m"), consume("g"), settle("Nack", "g", 0, "m")},
		"depth-shed-across-groups": {sub("g", 0, 0), sub("h", 0, 1), pub("", "a"), pub("", "b"), consume("g")},
		"dead-letter-queue-as-group": {sub("g", 1, 0), sub("g.dlq", 0, 0), pub("", "a"), consume("g"),
			settle("Nack", "g", 1, ""), consume("g.dlq"), settle("Ack", "g.dlq", 1, "")},
		"ack-unknown-key-tombstones": {sub("g", 0, 0), settle("Ack", "g", 0, "late"), pub("late", "a"),
			step(f, "Mirror", MirrorReq{Topic: "t", Key: "late", Body: []byte("a")})},
		"malformed": {{0, 3, 0xff, 0xff, 0xff}, {3, 1, 0x81}, {4, 0}, {2, 2, 0, 0}},
	} {
		f.Add(bytes.Join(seed, nil))
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		b := NewBroker()
		srv := rpc.NewServer("broker")
		RegisterService(srv, b)
		n := rpc.NewMem()
		addr, err := srv.Start(n, "broker:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl := rpc.NewClient(n, "broker", addr)
		defer cl.Close()

		for i := 0; len(script) >= 2; i++ {
			method := brokerMethods[int(script[0])%len(brokerMethods)]
			size := min(int(script[1]), len(script)-2)
			payload := script[2 : 2+size]
			script = script[2+size:]

			req := brokerRequest(method)
			decodes := codec.Unmarshal(payload, req) == nil
			if c, ok := req.(*ConsumeReq); ok && decodes && c.WaitNs > 0 {
				c.WaitNs = 0
				payload, _ = codec.Marshal(c)
			}
			_, err := cl.CallRaw(context.Background(), method, payload)
			if err != nil && strings.Contains(err.Error(), "panic in") {
				t.Fatalf("step %d %s(%x): %v", i, method, payload, err)
			}
			if !decodes && !rpc.IsCode(err, rpc.CodeBadRequest) {
				t.Fatalf("step %d %s(%x) does not decode, yet the broker answered %v", i, method, payload, err)
			}
			checkBooks(t, b, i, method)
		}
	})
}

// checkBooks holds every queue on b to its accounts: each message a queue
// was handed is queued, in flight, acked or dead-lettered, exactly once.
func checkBooks(t *testing.T, b *Broker, i int, method string) {
	t.Helper()
	b.mu.Lock()
	queues := maps.Clone(b.queues)
	b.mu.Unlock()
	for name, qq := range queues {
		s := (&Queue{q: qq, name: name}).Stats()
		if int64(s.Queued+s.InFlight)+s.Acked+s.DeadLettered != s.Published {
			t.Fatalf("after step %d (%s), queue %q holds %d queued + %d in flight + %d acked + %d dead-lettered of %d published",
				i, method, name, s.Queued, s.InFlight, s.Acked, s.DeadLettered, s.Published)
		}
	}
}
