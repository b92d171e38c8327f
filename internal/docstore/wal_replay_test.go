package docstore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"dsb/internal/codec"
)

// TestWALReplayMixedOpOrdering pins the replay-order contract for the op
// mix the services actually generate: Update and ListPrepend are
// read-modify-write operations logged as opPut of their *result* under the
// collection's mutation lock, so the log's record order IS the apply
// order. Interleaving them with whole-document replaces makes ordering
// observable — a replace replayed out of order either brings back what it
// replaced or erases writes that landed after it.
func TestWALReplayMixedOpOrdering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.wal")
	s, w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	posts := s.Collection("posts")
	for i := 0; i < 6; i++ {
		err := posts.Put(Doc{
			ID:     fmt.Sprintf("p%d", i),
			Fields: map[string]string{"author": fmt.Sprintf("u%d", i%2)},
			Nums:   map[string]int64{"ts": int64(100 + i)},
			Body:   []byte(fmt.Sprintf("v0-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Update after Put: replay must apply the updated doc, not the original.
	if err := posts.Update("p1", func(d Doc) Doc {
		d.Body = []byte("v1-1")
		d.Nums["ts"] = 500
		return d
	}); err != nil {
		t.Fatal(err)
	}
	// Replace p2 whole: a replay that reorders the replace after the update
	// below would erase that update.
	if err := posts.Put(Doc{ID: "p2", Fields: map[string]string{"author": "u9"}, Body: []byte("reborn")}); err != nil {
		t.Fatal(err)
	}
	// Replace p3 with a document that has no author: it must leave the
	// author index after replay.
	if err := posts.Put(Doc{ID: "p3", Body: []byte("anonymous")}); err != nil {
		t.Fatal(err)
	}
	// Update of the replaced doc: applies on top of the second Put.
	if err := posts.Update("p2", func(d Doc) Doc {
		d.Body = append(d.Body, []byte("+tail")...)
		return d
	}); err != nil {
		t.Fatal(err)
	}

	// Timeline collection: prepends interleaved with a reset to an empty
	// list. The reset lands between prepends, so the final list holds only
	// the entries prepended after it — order-sensitive in both directions.
	tl := s.Collection("timelines")
	for _, v := range []string{"a", "b", "c"} {
		if _, err := tl.ListPrepend("bob", v, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := tl.Put(Doc{ID: "bob"}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"d", "e"} {
		if _, err := tl.ListPrepend("bob", v, 10); err != nil {
			t.Fatal(err)
		}
	}
	// A capped list: replaying prepends without the cap (or in the wrong
	// order) yields a different final window.
	for i := 0; i < 8; i++ {
		if _, err := tl.ListPrepend("alice", fmt.Sprintf("e%d", i), 3); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot the live state, then reopen from the log alone. Maps are
	// normalized because the log's codec round-trip turns nil maps into
	// empty ones — lookups cannot tell the difference, so the contract is
	// over contents, not map presence.
	normalize := func(docs []Doc) []Doc {
		out := make([]Doc, len(docs))
		for i, d := range docs {
			if len(d.Fields) == 0 {
				d.Fields = nil
			}
			if len(d.Nums) == 0 {
				d.Nums = nil
			}
			out[i] = d
		}
		return out
	}
	want := make(map[string][]Doc)
	for _, name := range s.Collections() {
		want[name] = normalize(s.Collection(name).All())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s2, w2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := make(map[string][]Doc)
	for _, name := range s2.Collections() {
		got[name] = normalize(s2.Collection(name).All())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed state diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// Spot-check the order-sensitive outcomes directly.
	d, ok := s2.Collection("posts").Get("p3")
	if !ok || string(d.Body) != "anonymous" || len(d.Fields) != 0 {
		t.Fatalf("p3 after replay = %+v, %v", d, ok)
	}
	d, ok = s2.Collection("posts").Get("p2")
	if !ok || string(d.Body) != "reborn+tail" || d.Fields["author"] != "u9" {
		t.Fatalf("p2 after replay = %+v, %v", d, ok)
	}
	d, ok = s2.Collection("posts").Get("p1")
	if !ok || string(d.Body) != "v1-1" || d.Nums["ts"] != 500 {
		t.Fatalf("p1 after replay = %+v, %v", d, ok)
	}
	var bobList []string
	d, _ = s2.Collection("timelines").Get("bob")
	if err := codec.Unmarshal(d.Body, &bobList); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bobList, []string{"e", "d"}) {
		t.Fatalf("bob's timeline after replay = %v, want [e d]", bobList)
	}
	var aliceList []string
	d, _ = s2.Collection("timelines").Get("alice")
	if err := codec.Unmarshal(d.Body, &aliceList); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aliceList, []string{"e7", "e6", "e5"}) {
		t.Fatalf("alice's capped timeline after replay = %v, want [e7 e6 e5]", aliceList)
	}

	// The index must be rebuilt too, not just the documents: the replaced
	// authors land in the right buckets and leave the ones they had.
	byAuthor := s2.Collection("posts").Find("author", "u9", 0)
	if len(byAuthor) != 1 || byAuthor[0].ID != "p2" {
		t.Fatalf("author index after replay = %+v", byAuthor)
	}
	var ids []string
	for _, d := range s2.Collection("posts").Find("author", "u1", 0) {
		ids = append(ids, d.ID)
	}
	if !reflect.DeepEqual(ids, []string{"p1", "p5"}) {
		t.Fatalf("u1's posts after replay = %v, want [p1 p5]", ids)
	}
}
