package docstore

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dsb/internal/transport"
)

// The read handlers append stored bytes to the reply instead of encoding a
// typed response; what a client receives must be byte for byte what the
// typed encoding of the same answer is — hits, misses and empty results.
func TestReadReplyIsTypedEncoding(t *testing.T) {
	store := NewStore()
	call := serveRaw(t, store)
	col := store.Collection("posts")
	var docs []Doc
	for i := 0; i < 5; i++ {
		d := Doc{
			ID:     fmt.Sprintf("p%d", i),
			Fields: map[string]string{"author": fmt.Sprintf("u%d", i%2), "lang": "en"},
			Nums:   map[string]int64{"likes": int64(100 + i/2)},
			Body:   bytes.Repeat([]byte{byte(i)}, i*40),
		}
		if err := col.Put(d); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, decode(encode(&d)))
	}
	for _, tc := range []struct {
		name, method string
		req, want    any
	}{
		{"Get hit", "Get", GetReq{Collection: "posts", ID: "p3"}, GetResp{Doc: docs[3], Found: true}},
		{"Get miss", "Get", GetReq{Collection: "posts", ID: "nope"}, GetResp{}},
		{"Get unknown collection", "Get", GetReq{Collection: "nope", ID: "p3"}, GetResp{}},
		{"Find", "Find", FindReq{Collection: "posts", Field: "author", Value: "u0"}, FindResp{Docs: []Doc{docs[0], docs[2], docs[4]}}},
		{"Find limit", "Find", FindReq{Collection: "posts", Field: "lang", Value: "en", Limit: 2}, FindResp{Docs: docs[:2]}},
		{"Find nothing", "Find", FindReq{Collection: "posts", Field: "author", Value: "u9"}, FindResp{}},
	} {
		got := call(tc.method, mustMarshal(t, tc.req))
		if want := mustMarshal(t, tc.want); !bytes.Equal(got, want) {
			t.Errorf("%s replies\n%x, the typed encoding is\n%x", tc.name, got, want)
		}
		transport.ReleaseBuf(got)
	}
}

// The read handlers and AddNum used to create the collection they were asked
// about, so any caller could grow the store with reads.
func TestReadsOfUnknownCollectionsCreateNothing(t *testing.T) {
	store := NewStore()
	call := serveRaw(t, store)
	call("Put", mustMarshal(t, PutReq{Collection: "real", Doc: Doc{ID: "d"}}))
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("ghost-%d", i)
		call("Get", mustMarshal(t, GetReq{Collection: name, ID: "d"}))
		call("Find", mustMarshal(t, FindReq{Collection: name, Field: "f", Value: "v"}))
		call("AddNum", mustMarshal(t, AddNumReq{Collection: name, ID: "d", Field: "n", Delta: 1}))
	}
	if names := store.Collections(); !reflect.DeepEqual(names, []string{"real"}) {
		t.Fatalf("reads of unknown names left %d collections behind: %v", len(names)-1, names)
	}
}

func TestFindsOfUncarriedFieldsIndexNothing(t *testing.T) {
	store := NewStore()
	call := serveRaw(t, store)
	for i := 0; i < 50; i++ {
		doc := Doc{ID: fmt.Sprintf("item%02d", i), Fields: map[string]string{"all": "1", "tag-red": "1"}}
		call("Put", mustMarshal(t, PutReq{Collection: "items", Doc: doc}))
	}
	var resp FindResp
	for i := 0; i < 100; i++ {
		reply := call("Find", mustMarshal(t, FindReq{Collection: "items", Field: fmt.Sprintf("tag-ghost-%d", i), Value: "1"}))
		if _, err := resp.DecodeFrom(reply); err != nil || len(resp.Docs) != 0 {
			t.Fatalf("Find of an uncarried field: %d docs, %v", len(resp.Docs), err)
		}
	}
	c := store.Collection("items")
	if n := len(c.indexes); n != 0 {
		t.Fatalf("Finds of fields no document carries left %d indexes behind", n)
	}
	reply := call("Find", mustMarshal(t, FindReq{Collection: "items", Field: "tag-red", Value: "1"}))
	if _, err := resp.DecodeFrom(reply); err != nil || len(resp.Docs) != 50 {
		t.Fatalf("Find of tag-red: %d docs, %v; want 50", len(resp.Docs), err)
	}
	if got := slices.Sorted(maps.Keys(c.indexes)); !reflect.DeepEqual(got, []string{"tag-red"}) {
		t.Fatalf("a Find of a carried field left indexes %v, want [tag-red]", got)
	}
}

func TestAddNum(t *testing.T) {
	col := NewStore().Collection("accounts")
	if _, found, _ := col.AddNum("a", "balance", 1, 0); found {
		t.Fatal("AddNum found a document that is not there")
	}
	doc := Doc{ID: "a", Fields: map[string]string{"salt": "s"}, Nums: map[string]int64{"balance": 100, "zz": 7}, Body: []byte("b")}
	if err := col.Put(doc); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		field        string
		delta, floor int64
		value        int64
		ok           bool
	}{
		{"balance", -30, 0, 70, true},
		{"balance", -71, 0, 70, false}, // would cross the floor: unchanged
		{"balance", -70, 0, 0, true},   // exactly the floor
		{"balance", 1 << 40, 0, 1 << 40, true},
		{"aa", 5, 0, 5, true},    // absent, inserted before balance
		{"mm", -2, -2, -2, true}, // absent, inserted between
		{"zzz", 1, 0, 1, true},   // absent, appended
		{"zz", -8, 0, 7, false},
	} {
		v, found, ok := col.AddNum("a", step.field, step.delta, step.floor)
		if !found || v != step.value || ok != step.ok {
			t.Fatalf("AddNum(%q, %d, floor %d) = %d, %v, %v; want %d, true, %v", step.field, step.delta, step.floor, v, found, ok, step.value, step.ok)
		}
	}
	doc.Nums = map[string]int64{"aa": 5, "balance": 1 << 40, "mm": -2, "zz": 7, "zzz": 1}
	got, _ := col.Get("a")
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("after the adds the document is %+v, want %+v", got, doc)
	}
	enc, _ := col.encoded("a")
	if want := encode(&doc); !bytes.Equal(enc, want) {
		t.Fatalf("the spliced encoding %x is not the canonical one %x", enc, want)
	}
	// The string index was left alone.
	if r := col.Find("salt", "s", 0); len(r) != 1 {
		t.Fatalf("salt index holds %d documents", len(r))
	}

	// Concurrent adds all land.
	const workers, adds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if _, _, ok := col.AddNum("a", "zz", 1, 0); !ok {
					t.Error("AddNum did not apply")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _ = col.Get("a")
	if got.Nums["zz"] != 7+workers*adds {
		t.Fatalf("zz = %d after %d concurrent adds, want %d", got.Nums["zz"], workers*adds, 7+workers*adds)
	}
}
