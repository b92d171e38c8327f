package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dsb/internal/codec"
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
	path := filepath.Join(t.TempDir(), "addnum.wal")
	store, wal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	col := store.Collection("accounts")
	if _, found, _, _ := col.AddNum("a", "balance", 1, 0); found {
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
		v, found, ok, err := col.AddNum("a", step.field, step.delta, step.floor)
		if err != nil || !found || v != step.value || ok != step.ok {
			t.Fatalf("AddNum(%q, %d, floor %d) = %d, %v, %v, %v; want %d, true, %v", step.field, step.delta, step.floor, v, found, ok, err, step.value, step.ok)
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

	// Concurrent adds all land, and a replay rebuilds the same document.
	const workers, adds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				if _, _, ok, err := col.AddNum("a", "zz", 1, 0); !ok || err != nil {
					t.Errorf("AddNum = %v, %v", ok, err)
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
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, wal2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if again, _ := replayed.Collection("accounts").Get("a"); !reflect.DeepEqual(again, got) {
		t.Fatalf("replayed %+v, live %+v", again, got)
	}
}

// walFile frames records as the log does: a little-endian length, then the
// record.
func walFile(t *testing.T, path string, records ...[]byte) {
	t.Helper()
	var log []byte
	for _, rec := range records {
		log = binary.LittleEndian.AppendUint32(log, uint32(len(rec)))
		log = append(log, rec...)
	}
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The log is written and replayed in wire form now; its format is still the
// typed encoding of WALRecord. A log the typed encoder wrote — the parent
// commit's writer — must replay here, and the log this commit writes must
// decode, record by record, with the typed decoder — the parent's replay.
func TestWALCrossVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typed.wal")
	list, _ := codec.Marshal([]string{"p2", "p1"})
	p1 := Doc{ID: "p1", Fields: map[string]string{"author": "ann", "lang": "en"}, Nums: map[string]int64{"ts": 5}, Body: []byte("one")}
	p1v2 := Doc{ID: "p1", Fields: map[string]string{"author": "bob"}, Nums: map[string]int64{"ts": 9, "likes": -1}, Body: []byte{}}
	records := []WALRecord{
		{Kind: opPut, Collection: "posts", Doc: p1},
		{Kind: opPut, Collection: "posts", Doc: Doc{ID: "p2", Body: []byte("two")}},
		{Kind: opPut, Collection: "timelines", Doc: Doc{ID: "tl:ann", Body: list}},
		{Kind: opPut, Collection: "posts", Doc: p1v2},
	}
	var typed [][]byte
	for _, rec := range records {
		typed = append(typed, mustMarshal(t, rec))
	}
	walFile(t, path, typed...)

	store, wal, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if names := store.Collections(); !reflect.DeepEqual(names, []string{"posts", "timelines"}) {
		t.Fatalf("replay built collections %v", names)
	}
	if all := store.Collection("posts").All(); len(all) != 2 || !reflect.DeepEqual(all[0], decode(encode(&p1v2))) {
		t.Fatalf("replay built posts %+v, want %+v and p2", all, p1v2)
	}
	if ann := store.Collection("posts").Find("author", "ann", 0); len(ann) != 0 {
		t.Fatalf("replay left a stale index entry: %+v", ann)
	}
	if bob := store.Collection("posts").Find("author", "bob", 0); len(bob) != 1 {
		t.Fatalf("replay did not index the replacement: %+v", bob)
	}
	if n, err := store.Collection("timelines").ListPrepend("tl:ann", "p3", 0); err != nil || n != 3 {
		t.Fatalf("prepend onto a replayed timeline = %d, %v", n, err)
	}

	// Append with this commit's writer, then read the file back with the
	// typed decoder alone.
	if err := store.Collection("posts").Put(p1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Collection("posts").AddNum("p1", "ts", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []WALRecord
	for len(log) > 0 {
		n := binary.LittleEndian.Uint32(log)
		var rec WALRecord
		if err := codec.Unmarshal(log[4:4+n], &rec); err != nil {
			t.Fatalf("record %d does not decode as a WALRecord: %v", len(decoded), err)
		}
		// And it is the typed encoder's bytes, not merely decodable.
		if again := mustMarshal(t, rec); !bytes.Equal(again, log[4:4+n]) {
			t.Fatalf("record %d is %x, the typed encoding of what it decodes to is %x", len(decoded), log[4:4+n], again)
		}
		decoded = append(decoded, rec)
		log = log[4+n:]
	}
	if len(decoded) != len(records)+3 {
		t.Fatalf("the log holds %d records, want %d", len(decoded), len(records)+3)
	}
	tail := decoded[len(records):]
	p1v3 := decode(encode(&p1))
	p1v3.Nums["ts"] = 7
	for i, want := range []WALRecord{
		{Kind: opPut, Collection: "timelines", Doc: Doc{ID: "tl:ann"}},
		{Kind: opPut, Collection: "posts", Doc: decode(encode(&p1))},
		{Kind: opPut, Collection: "posts", Doc: p1v3},
	} {
		if i == 0 {
			want.Doc = tail[0].Doc // checked by the prepend above; only its place matters here
		}
		if !reflect.DeepEqual(tail[i], want) {
			t.Fatalf("appended record %d decodes to %+v, want %+v", i, tail[i], want)
		}
	}
}
