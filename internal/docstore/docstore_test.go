package docstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dsb/internal/codec"
	"dsb/internal/rpc"
)

func TestPutGet(t *testing.T) {
	s := NewStore()
	posts := s.Collection("posts")
	d := Doc{ID: "p1", Fields: map[string]string{"author": "alice"}, Nums: map[string]int64{"likes": 3}, Body: []byte("hello")}
	if err := posts.Put(d); err != nil {
		t.Fatal(err)
	}
	got, ok := posts.Get("p1")
	if !ok || string(got.Body) != "hello" || got.Fields["author"] != "alice" || got.Nums["likes"] != 3 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := posts.Get("p2"); ok {
		t.Fatal("a document nobody put is present")
	}
}

func TestEmptyIDRejected(t *testing.T) {
	s := NewStore()
	if err := s.Collection("c").Put(Doc{}); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("want CodeBadRequest, got %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	c := s.Collection("c")
	c.Put(Doc{ID: "x", Body: []byte("abc"), Fields: map[string]string{"f": "v"}}) //nolint:errcheck
	got, _ := c.Get("x")
	got.Body[0] = 'Z'
	got.Fields["f"] = "mutated"
	again, _ := c.Get("x")
	if string(again.Body) != "abc" || again.Fields["f"] != "v" {
		t.Fatal("Get leaked internal state")
	}
}

func TestFindByField(t *testing.T) {
	s := NewStore()
	c := s.Collection("posts")
	for i := 0; i < 5; i++ {
		author := "alice"
		if i%2 == 1 {
			author = "bob"
		}
		c.Put(Doc{ID: fmt.Sprintf("p%d", i), Fields: map[string]string{"author": author}}) //nolint:errcheck
	}
	alice := c.Find("author", "alice", 0)
	if len(alice) != 3 {
		t.Fatalf("alice posts = %d", len(alice))
	}
	if got := c.Find("author", "alice", 2); len(got) != 2 {
		t.Fatalf("limited find = %d", len(got))
	}
	if got := c.Find("author", "carol", 0); len(got) != 0 {
		t.Fatalf("carol posts = %d", len(got))
	}
	if got := c.Find("nosuchfield", "x", 0); len(got) != 0 {
		t.Fatalf("unknown field = %d", len(got))
	}
}

func TestReindexOnUpdate(t *testing.T) {
	s := NewStore()
	c := s.Collection("c")
	c.Put(Doc{ID: "x", Fields: map[string]string{"state": "open"}, Nums: map[string]int64{"v": 1}})   //nolint:errcheck
	c.Put(Doc{ID: "x", Fields: map[string]string{"state": "closed"}, Nums: map[string]int64{"v": 2}}) //nolint:errcheck
	if got := c.Find("state", "open", 0); len(got) != 0 {
		t.Fatal("stale string index")
	}
	if got := c.Find("state", "closed", 0); len(got) != 1 || got[0].Nums["v"] != 2 {
		t.Fatalf("new string index finds %+v, want the replacement", got)
	}
}

// A document's mutators are read-modify-writes on one encoding: AddNum
// splices a number in, ListPrepend a new body. mutMu serializes them, so
// adds and prepends racing on one document must all land; if either
// re-encoded from a stale read, it would drop the other's change.
func TestUpdateConcurrentAtomic(t *testing.T) {
	s := NewStore()
	c := s.Collection("accounts")
	if _, err := c.ListPrepend("a", "seed", 0); err != nil {
		t.Fatal(err)
	}
	const workers, steps = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				if w%2 == 0 {
					if _, found, ok := c.AddNum("a", "n", 1, 0); !found || !ok {
						t.Errorf("AddNum = %v, %v", found, ok)
						return
					}
				} else if _, err := c.ListPrepend("a", fmt.Sprintf("w%d-%d", w, i), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := c.Get("a")
	var list []string
	if err := codec.Unmarshal(got.Body, &list); err != nil {
		t.Fatal(err)
	}
	if want := int64(workers / 2 * steps); got.Nums["n"] != want {
		t.Errorf("n = %d, want %d (lost adds)", got.Nums["n"], want)
	}
	if want := 1 + workers/2*steps; len(list) != want {
		t.Errorf("list holds %d entries, want %d (lost prepends)", len(list), want)
	}
}

func TestListPrepend(t *testing.T) {
	s := NewStore()
	c := s.Collection("timelines")
	// Creates the document on first prepend.
	if n, err := c.ListPrepend("tl:u", "p1", 0); err != nil || n != 1 {
		t.Fatalf("ListPrepend = %d, %v", n, err)
	}
	if n, err := c.ListPrepend("tl:u", "p2", 0); err != nil || n != 2 {
		t.Fatalf("ListPrepend = %d, %v", n, err)
	}
	d, _ := c.Get("tl:u")
	var list []string
	if err := codec.Unmarshal(d.Body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0] != "p2" || list[1] != "p1" {
		t.Fatalf("list = %v, want [p2 p1]", list)
	}

	// Cap truncates from the tail (oldest entries fall off).
	for i := 3; i <= 6; i++ {
		if _, err := c.ListPrepend("tl:u", fmt.Sprintf("p%d", i), 4); err != nil {
			t.Fatal(err)
		}
	}
	d, _ = c.Get("tl:u")
	list = nil
	if err := codec.Unmarshal(d.Body, &list); err != nil {
		t.Fatal(err)
	}
	want := []string{"p6", "p5", "p4", "p3"}
	if len(list) != len(want) {
		t.Fatalf("list = %v, want %v", list, want)
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("list = %v, want %v", list, want)
		}
	}

	if _, err := c.ListPrepend("", "x", 0); !rpc.IsCode(err, rpc.CodeBadRequest) {
		t.Fatalf("want CodeBadRequest, got %v", err)
	}
	// A body that is not a codec []string is an error, not silent data loss.
	c.Put(Doc{ID: "blob", Body: []byte{0xff, 0xff, 0xff}}) //nolint:errcheck
	if _, err := c.ListPrepend("blob", "x", 0); err == nil {
		t.Fatal("prepend onto non-list body succeeded")
	}
}

// Regression: the timeline services used to fan out with an unguarded
// Get/modify/Put cycle, so concurrent pushes onto one follower's timeline
// silently dropped entries. ListPrepend is the atomic replacement; N
// concurrent prepends of distinct values must all survive.
func TestListPrependConcurrentNoLostEntries(t *testing.T) {
	s := NewStore()
	c := s.Collection("timelines")
	const workers, pushes = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				if _, err := c.ListPrepend("tl:hot", fmt.Sprintf("w%d-p%d", w, i), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d, _ := c.Get("tl:hot")
	var list []string
	if err := codec.Unmarshal(d.Body, &list); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(list))
	for _, v := range list {
		seen[v] = true
	}
	if len(list) != workers*pushes || len(seen) != workers*pushes {
		t.Fatalf("timeline has %d entries (%d distinct), want %d", len(list), len(seen), workers*pushes)
	}
}

// Property: for any sequence of puts and replaces, Find(field, v) returns
// exactly the live docs whose field equals v.
func TestIndexConsistencyProperty(t *testing.T) {
	type op struct {
		ID  uint8
		Val uint8
		Num int16
	}
	f := func(ops []op) bool {
		s := NewStore()
		c := s.Collection("c")
		live := map[string]Doc{}
		for _, o := range ops {
			id := fmt.Sprintf("d%d", o.ID%24)
			d := Doc{
				ID:     id,
				Fields: map[string]string{"f": fmt.Sprintf("v%d", o.Val%4)},
				Nums:   map[string]int64{"n": int64(o.Num)},
			}
			if c.Put(d) != nil {
				return false
			}
			live[id] = d
		}
		// Equality via index vs linear scan.
		for v := 0; v < 4; v++ {
			val := fmt.Sprintf("v%d", v)
			got := c.Find("f", val, 0)
			want := 0
			for _, d := range live {
				if d.Fields["f"] == val {
					want++
				}
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	c := s.Collection("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("d%d", (g*500+i)%64)
				switch i % 3 {
				case 0:
					c.Put(Doc{ID: id, Fields: map[string]string{"g": fmt.Sprint(g)}, Nums: map[string]int64{"i": int64(i)}}) //nolint:errcheck
				case 1:
					c.Get(id)
					c.Find("g", fmt.Sprint(g), 10)
				case 2:
					c.AddNum(id, "i", 1, 0) //nolint:errcheck
				}
			}
		}(g)
	}
	wg.Wait()
}

// Store.Collection looks names up under a read lock; a name's first users
// race to create it, and all of them must end up on one collection.
func TestCollectionCreatedOnceUnderConcurrentFirstUse(t *testing.T) {
	s := NewStore()
	const users = 16
	got := make([]*Collection, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = s.Collection("posts")
			if err := got[i].Put(Doc{ID: fmt.Sprintf("p%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("user %d got a different collection than user 0", i)
		}
	}
	if n := got[0].Len(); n != users {
		t.Fatalf("collection holds %d docs, want %d: a write went to a collection that was dropped", n, users)
	}
	if names := s.Collections(); len(names) != 1 {
		t.Fatalf("Collections() = %v", names)
	}
}

func TestRPCService(t *testing.T) {
	n := rpc.NewMem()
	srv := rpc.NewServer("mongodb")
	RegisterService(srv, NewStore())
	addr, err := srv.Start(n, "mongodb:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := rpc.NewClient(n, "mongodb", addr)
	defer cl.Close()
	ctx := context.Background()

	put := PutReq{Collection: "posts", Doc: Doc{ID: "p1", Fields: map[string]string{"author": "a"}, Nums: map[string]int64{"likes": 5}, Body: []byte("b")}}
	if err := cl.Call(ctx, "Put", put, nil); err != nil {
		t.Fatal(err)
	}
	var got GetResp
	if err := cl.Call(ctx, "Get", GetReq{Collection: "posts", ID: "p1"}, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Found || string(got.Doc.Body) != "b" {
		t.Fatalf("Get = %+v", got)
	}
	var fr FindResp
	if err := cl.Call(ctx, "Find", FindReq{Collection: "posts", Field: "author", Value: "a"}, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Docs) != 1 {
		t.Fatalf("Find = %d docs", len(fr.Docs))
	}
	var ar AddNumResp
	if err := cl.Call(ctx, "AddNum", AddNumReq{Collection: "posts", ID: "p1", Field: "likes", Delta: 1}, &ar); err != nil || !ar.OK || ar.Value != 6 {
		t.Fatalf("AddNum = %+v, %v", ar, err)
	}
}

func BenchmarkPut(b *testing.B) {
	s := NewStore()
	c := s.Collection("bench")
	body := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(Doc{ //nolint:errcheck
			ID:     fmt.Sprintf("d%d", i%10000),
			Fields: map[string]string{"author": fmt.Sprintf("u%d", i%100)},
			Nums:   map[string]int64{"ts": int64(i)},
			Body:   body,
		})
	}
}
