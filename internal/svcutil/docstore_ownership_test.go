package svcutil

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"dsb/internal/codec"
	"dsb/internal/docstore"
	"dsb/internal/rpc"
)

// docstore keeps each document as an immutable wire encoding (see the
// docstore.Collection doc comment), so nothing a caller holds can alias what
// is stored. These tests hold it to that from outside, over rpc.Mem and
// through the exported in-process API.

func serveDB(t *testing.T, store *docstore.Store) DB {
	t.Helper()
	n := rpc.NewMem()
	srv := rpc.NewServer("db")
	docstore.RegisterService(srv, store)
	addr, err := srv.Start(n, "db:0")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(n, "db", addr)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return DB{C: c}
}

// scribble overwrites everything a Doc's holder can reach through it.
func scribble(d docstore.Doc) {
	for k := range d.Fields {
		d.Fields[k] = "scribbled"
	}
	d.Fields["extra"] = "scribbled"
	for k := range d.Nums {
		d.Nums[k] = -1
	}
	d.Nums["extra"] = -1
	for i := range d.Body {
		d.Body[i] = 'X'
	}
}

func TestDocstoreCallersCannotReachStoredDoc(t *testing.T) {
	store := docstore.NewStore()
	db := serveDB(t, store)
	ctx := context.Background()
	fresh := func() docstore.Doc {
		return docstore.Doc{
			ID:     "d1",
			Fields: map[string]string{"author": "ann"},
			Nums:   map[string]int64{"ts": 7},
			Body:   []byte("body"),
		}
	}
	want, err := codec.Marshal(fresh())
	if err != nil {
		t.Fatal(err)
	}
	check := func(after string) {
		t.Helper()
		got, found, err := db.Get(ctx, "c", "d1")
		if err != nil || !found {
			t.Fatalf("Get after %s: found=%v err=%v", after, found, err)
		}
		docs, err := db.Find(ctx, "c", "author", "ann", 0)
		if err != nil || len(docs) != 1 {
			t.Fatalf("Find after %s: %d docs, err=%v", after, len(docs), err)
		}
		for _, d := range []docstore.Doc{got, docs[0]} {
			if enc, _ := codec.Marshal(d); !bytes.Equal(enc, want) {
				t.Fatalf("after %s the store returns %+v", after, d)
			}
		}
	}

	put := fresh()
	if err := db.Put(ctx, "c", put); err != nil {
		t.Fatal(err)
	}
	scribble(put)
	check("mutating the Doc passed to Put")

	got, _, err := db.Get(ctx, "c", "d1")
	if err != nil {
		t.Fatal(err)
	}
	scribble(got)
	check("mutating the Doc returned by Get")

	// In-process callers of the exported API get, and hand in, copies too.
	local, _ := store.Collection("c").Get("d1")
	scribble(local)
	check("mutating the Doc returned by Collection.Get")
	put = fresh()
	if err := store.Collection("c").Put(put); err != nil {
		t.Fatal(err)
	}
	scribble(put)
	check("mutating the Doc passed to Collection.Put")
}

// A version is self-describing so a reader can tell a written one from a
// torn one: tag and n name the same (writer, step), and the body is a list
// of one to four tags.
func version(g, i int) (tag string, n int64) {
	return fmt.Sprintf("w%d-%d", g, i), int64(g*1_000_000 + i)
}

func checkVersion(d docstore.Doc) error {
	if len(d.Fields)+len(d.Nums) > 0 { // both empty on a doc ListPrepend created
		var g, i int
		if _, err := fmt.Sscanf(d.Fields["tag"], "w%d-%d", &g, &i); err != nil {
			return fmt.Errorf("tag %q: %v", d.Fields["tag"], err)
		}
		if _, n := version(g, i); d.Nums["n"] != n {
			return fmt.Errorf("tag %q with n=%d: no writer wrote that pair", d.Fields["tag"], d.Nums["n"])
		}
	}
	var list []string
	if err := codec.Unmarshal(d.Body, &list); err != nil {
		return fmt.Errorf("body: %v", err)
	}
	if len(list) < 1 || len(list) > 4 {
		return fmt.Errorf("body lists %d entries, want 1 to 4", len(list))
	}
	for _, e := range list {
		var g, i int
		if _, err := fmt.Sscanf(e, "w%d-%d", &g, &i); err != nil {
			return fmt.Errorf("body entry %q: %v", e, err)
		}
	}
	return nil
}

func TestDocstoreConcurrentMutatorsAndWALReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "own.wal")
	store, wal, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := serveDB(t, store)
	col := store.Collection("c")
	ctx := context.Background()
	ids := []string{"a", "b", "c"}
	const writers, steps = 8, 150

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				id := ids[(g+i)%len(ids)]
				tag, n := version(g, i)
				var err error
				switch (g + i/len(ids)) % 4 {
				case 0:
					body, _ := codec.Marshal([]string{tag})
					err = db.Put(ctx, "c", docstore.Doc{ID: id, Fields: map[string]string{"tag": tag}, Nums: map[string]int64{"n": n}, Body: body})
				case 1:
					_, _, err = db.Get(ctx, "c", id)
				case 2:
					err = col.Update(id, func(d docstore.Doc) docstore.Doc {
						d.Fields = map[string]string{"tag": tag}
						d.Nums = map[string]int64{"n": n}
						return d
					})
					if rpc.IsCode(err, rpc.CodeNotFound) {
						err = nil // no other writer has created it yet
					}
				case 3:
					_, err = db.ListPrepend(ctx, "c", id, tag, 4)
				}
				if err != nil {
					t.Errorf("writer %d step %d on %s: %v", g, i, id, err)
					return
				}
			}
		}(g)
	}
	writersDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-writersDone:
				return
			default:
			}
			d, found, err := db.Get(ctx, "c", ids[i%len(ids)])
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if found {
				if err := checkVersion(d); err != nil {
					t.Errorf("reader got a version no writer wrote: %v (%+v)", err, d)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-readerDone

	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, wal2, err := docstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	live, again := col.All(), replayed.Collection("c").All()
	if len(live) != len(again) {
		t.Fatalf("live store holds %d docs, replayed %d", len(live), len(again))
	}
	for i := range live {
		a, _ := codec.Marshal(live[i])
		b, _ := codec.Marshal(again[i])
		if !bytes.Equal(a, b) {
			t.Errorf("doc %s: live %+v, replayed %+v", live[i].ID, live[i], again[i])
		}
	}
}
