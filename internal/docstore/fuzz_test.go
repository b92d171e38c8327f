package docstore

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/rpc"
)

// fuzzService serves a fresh store and returns it with a raw caller whose
// error is the handler's. The dispatcher recovers a handler panic into an
// error reply, so the caller turns that back into a panic for the fuzzer.
func fuzzService(t testing.TB) (*Store, func(method string, payload []byte) ([]byte, error)) {
	store := NewStore()
	n := rpc.NewMem()
	srv := rpc.NewServer("db")
	RegisterService(srv, store)
	addr, err := srv.Start(n, "db:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(n, "db", addr)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return store, func(method string, payload []byte) ([]byte, error) {
		reply, err := cl.CallRaw(context.Background(), method, payload)
		if err != nil && strings.Contains(err.Error(), "panic in") {
			panic(fmt.Sprintf("%s(%x): %v", method, payload, err))
		}
		return reply, err
	}
}

// allocated runs fn and returns the bytes the process allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzPutWire feeds arbitrary bytes to the RPC Put handler, which parses
// them by hand. It must never panic, never allocate on the strength of a
// length header alone, accept exactly what the typed decoder accepts (with
// an ID), and store the canonical encoding of what that decoder builds —
// whatever order, repetition or varint padding the input had.
func FuzzPutWire(f *testing.F) {
	seed := func(v any) []byte { return mustMarshal(f, v) }
	good := seed(PutReq{Collection: "c", Doc: Doc{
		ID: "d1", Fields: map[string]string{"a": "1", "b": "2"}, Nums: map[string]int64{"m": -3, "n": 1 << 40}, Body: []byte("body"),
	}})
	f.Add(good)
	for i := range good {
		f.Add(good[:i]) // truncated at every offset
	}
	f.Add(seed(PutReq{Collection: "c", Doc: Doc{}}))                            // empty ID
	f.Add(seed(PutReq{Collection: "", Doc: Doc{ID: "x", Body: []byte{}}}))      // empty collection, empty body
	f.Add([]byte("\x01c\x01x\x02\x01b\x012\x01a\x011\x00\x00"))                 // unsorted field keys
	f.Add([]byte("\x01c\x01x\x02\x01a\x011\x01a\x012\x00\x00"))                 // a repeated field key
	f.Add([]byte("\x01c\x01x\x00\x02\x01n\x02\x01n\x04\x00"))                   // a repeated num key
	f.Add([]byte("\x01c\x81\x00x\x00\x00\x00"))                                 // padded ID length
	f.Add([]byte("\x01c\x01x\x00\x01\x01n\x82\x00\x00"))                        // padded num value
	f.Add([]byte("\x81\x00c\x01x\x00\x00\x00"))                                 // padded collection length
	f.Add([]byte("\x01c\x01x\xff\xff\xff\x1f"))                                 // field count far past the input
	f.Add([]byte("\x01c\x01x\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // body length past every bound
	f.Add([]byte("\x01c\x01x\x00\x00\x00\x00"))                                 // trailing byte

	store, call := fuzzService(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want PutReq
		valid := codec.Unmarshal(payload, &want) == nil && want.Doc.ID != ""
		var err error
		if grew := allocated(func() { _, err = call("Put", payload) }); grew > 1<<20+64*uint64(len(payload)) {
			t.Fatalf("Put(%x) allocated %d bytes", payload, grew)
		}
		if (err == nil) != valid {
			t.Fatalf("Put(%x): handler says %v, the typed decoder accepts: %v", payload, err, valid)
		}
		if !valid {
			if !rpc.IsCode(err, rpc.CodeBadRequest) {
				t.Fatalf("Put(%x): %v, want CodeBadRequest", payload, err)
			}
			return
		}
		reply, err := call("Get", mustMarshal(t, GetReq{Collection: want.Collection, ID: want.Doc.ID}))
		if err != nil {
			t.Fatal(err)
		}
		var got GetResp
		if err := codec.Unmarshal(reply, &got); err != nil || !got.Found {
			t.Fatalf("Get after Put(%x): found=%v err=%v", payload, got.Found, err)
		}
		if !reflect.DeepEqual(got.Doc, want.Doc) {
			t.Fatalf("Put(%x) stored %+v, the typed decoder built %+v", payload, got.Doc, want.Doc)
		}
		if typed := mustMarshal(t, GetResp{Doc: want.Doc, Found: true}); !bytes.Equal(reply, typed) {
			t.Fatalf("Put(%x): Get replies %x, the typed encoding is %x", payload, reply, typed)
		}
		// What was indexed is what a map decode kept.
		for k, v := range want.Doc.Fields {
			if docs := store.Collection(want.Collection).Find(k, v, 0); !containsID(docs, want.Doc.ID) {
				t.Fatalf("Put(%x): Find(%q, %q) misses the document", payload, k, v)
			}
		}
	})
}

func containsID(docs []Doc, id string) bool {
	return slices.ContainsFunc(docs, func(d Doc) bool { return d.ID == id })
}

// FuzzListPrependBody puts arbitrary bytes in a document's body and prepends
// through the RPC handler, which walks the body as a []string encoding
// without decoding it. A body the typed decoder rejects must fail and leave
// the document as it was; one it accepts must come out as the decoder's list
// with the value in front, cut at the cap, and the reply must say whether the
// value went in.
func FuzzListPrependBody(f *testing.F) {
	list := mustMarshal(f, []string{"p3", "p2", "", "p1"})
	f.Add(list, "p9", uint8(0), false)
	f.Add(list, "p2", uint8(3), true)
	f.Add(list, "p9", uint8(1), false)
	for i := range list {
		f.Add(list[:i], "v", uint8(2), false) // truncated at every offset
	}
	f.Add([]byte{}, "v", uint8(0), true)
	f.Add([]byte("\x81\x00\x01a"), "a", uint8(0), true)          // padded count
	f.Add([]byte("\x02\x81\x00a\x01b"), "v", uint8(0), false)    // padded element length
	f.Add([]byte("\xff\xff\xff\x1f\x01a"), "v", uint8(0), false) // count far past the input
	f.Add([]byte("\x01\x01a\x00"), "v", uint8(0), false)         // trailing byte

	store, call := fuzzService(f)
	col := store.Collection("c")
	f.Fuzz(func(t *testing.T, body []byte, value string, max uint8, unique bool) {
		if err := col.Put(Doc{ID: "tl", Fields: map[string]string{"k": "v"}, Body: body}); err != nil {
			t.Fatal(err)
		}
		before, _ := col.encoded("tl")
		var old []string
		valid := len(body) == 0 || codec.Unmarshal(body, &old) == nil
		want := old
		inserted := !unique || !slices.Contains(old, value)
		if inserted {
			want = append([]string{value}, old...)
			if max > 0 && len(want) > int(max) {
				want = want[:max]
			}
		}

		req := mustMarshal(t, ListPrependReq{Collection: "c", ID: "tl", Value: value, Cap: int64(max), Unique: unique})
		var reply []byte
		var err error
		if grew := allocated(func() { reply, err = call("ListPrepend", req) }); grew > 1<<20+64*uint64(len(body)+len(value)) {
			t.Fatalf("ListPrepend onto %x allocated %d bytes", body, grew)
		}
		after, _ := col.encoded("tl")
		if (err == nil) != valid {
			t.Fatalf("ListPrepend onto %x: handler says %v, the typed decoder accepts: %v", body, err, valid)
		}
		if !valid {
			if !bytes.Equal(before, after) {
				t.Fatalf("a failed ListPrepend onto %x changed the document", body)
			}
			return
		}
		var resp ListPrependResp
		if err := codec.Unmarshal(reply, &resp); err != nil || int(resp.Len) != len(want) || resp.Inserted != inserted {
			t.Fatalf("ListPrepend onto %x: Len=%d Inserted=%v err=%v, want %d and %v", body, resp.Len, resp.Inserted, err, len(want), inserted)
		}
		d, _ := col.Get("tl")
		var got []string
		if len(d.Body) > 0 {
			if err := codec.Unmarshal(d.Body, &got); err != nil {
				t.Fatalf("ListPrepend onto %x left a body that does not decode: %v", body, err)
			}
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("ListPrepend(%q, cap %d, unique %v) onto %x: list %q, want %q", value, max, unique, body, got, want)
		}
		if d.Fields["k"] != "v" || d.ID != "tl" {
			t.Fatalf("ListPrepend onto %x damaged the rest of the document: %+v", body, d)
		}
		if p, ok := layoutOf(after); !ok || p.body == 0 {
			t.Fatalf("ListPrepend onto %x stored a non-canonical encoding %x", body, after)
		}
	})
}
