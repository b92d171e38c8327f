// Package docstore implements the suite's persistent document database —
// the role MongoDB plays in DeathStarBench backends (posts, profiles,
// orders, reviews, sensor data). Documents carry an opaque body (the
// owning service's codec-encoded struct) plus string fields the store
// indexes for equality lookups and numbers it adds to atomically, mirroring
// how the suite's services keep queryable metadata next to blob-ish
// payloads.
//
// Durability is optional: with a write-ahead log attached, every mutation
// is appended to the log before being applied, and Open replays the log on
// startup. No tier boots a WAL today: every application, tool and example
// runs its stores in memory, and only the tests open one.
package docstore

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// Doc is one document as callers hand it in and get it back. The store keeps
// none of it: a Doc is encoded on the way in and decoded on the way out, so
// its holder owns its maps and body outright. A zero-length Fields, Nums or
// Body comes back empty and non-nil, in process as over RPC.
type Doc struct {
	// ID is the primary key, unique within a collection.
	ID string
	// Fields are indexed string attributes (equality lookups).
	Fields map[string]string
	// Nums are numeric attributes, not indexed: the counters and balances
	// AddNum adjusts in place.
	Nums map[string]int64
	// Body is the opaque payload owned by the writing service.
	Body []byte
}

// Store is a set of named collections.
type Store struct {
	mu          sync.RWMutex // guards collections; written only on first use of a name
	collections map[string]*Collection
	wal         atomic.Pointer[WAL]
}

// NewStore creates an in-memory store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns the named collection, creating it if needed.
func (s *Store) Collection(name string) *Collection { return s.collection(name, true) }

// collection looks name up. A name nobody has written is created if keep is
// set and otherwise reads as an empty collection the store does not hold, so
// reads cannot grow it. name is copied on first use and never retained: a
// caller's string(bytes) argument costs nothing.
func (s *Store) collection(name string, keep bool) *Collection {
	s.mu.RLock()
	c := s.collections[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	own := strings.Clone(name)
	if !keep {
		return newCollection(own, s)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.collections[own] == nil {
		s.collections[own] = newCollection(own, s)
	}
	return s.collections[own]
}

// Collection is one document collection with its field index.
//
// Each document is held as its canonical wire encoding (see stored.go), and
// that slice is immutable once stored: every mutator installs a fresh one.
// So a reader takes the slice under mu and copies from it under no lock, the
// RPC service moves documents in and out without building a Doc, and nothing
// a caller holds can alias what is stored.
type Collection struct {
	name  string
	store *Store

	mu   sync.RWMutex
	docs map[string]stored
	// fields maps the wire bytes of a (field, value) pair to the ascending
	// IDs of the documents that carry it.
	fields map[string]*[]string

	// mutMu serializes mutations: a read-modify-write (Update, ListPrepend,
	// AddNum) cannot lose another's change, and because it is held across
	// the WAL append and the apply, log order is apply order. Lock order is
	// mutMu, then the WAL's own mutex inside logPut, then mu; logPut takes no
	// store lock.
	mutMu sync.Mutex
}

// stored is one document: its encoding and its ID, the string that is its
// docs key and that its index entries share (a map lookup does not hand the
// key back).
type stored struct {
	id  string
	enc []byte
}

func newCollection(name string, store *Store) *Collection {
	return &Collection{
		name:   name,
		store:  store,
		docs:   make(map[string]stored),
		fields: make(map[string]*[]string),
	}
}

// Put inserts or replaces a document by ID.
func (c *Collection) Put(d Doc) error {
	var scratch [512]byte
	enc, _ := d.AppendTo(scratch[:0]) // fails only on a nil receiver
	return c.putWire(enc)
}

// putWire is Put for a document in wire form, as a request carries it:
// validated, copied once (the caller's is a connection's read buffer) and
// stored.
func (c *Collection) putWire(doc []byte) error {
	doc, p, err := canonical(doc)
	if err != nil {
		return rpc.Errorf(rpc.CodeBadRequest, "decode: %v", err)
	}
	if p.id == p.fields {
		return rpc.Errorf(rpc.CodeBadRequest, "docstore: empty document ID")
	}
	enc := bytes.Clone(doc)
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	return c.commit(enc)
}

// commit logs and then stores enc, a canonical encoding the caller gives up;
// mutMu is held.
func (c *Collection) commit(enc []byte) error {
	if err := c.logPut(enc); err != nil {
		return err
	}
	c.mu.Lock()
	c.apply(enc)
	c.mu.Unlock()
	return nil
}

// apply installs enc under mu. A replace keeps the ID string it has and
// re-indexes only when the fields' bytes changed.
func (c *Collection) apply(enc []byte) {
	p, _ := layoutOf(enc)
	old, replaces := c.docs[string(enc[p.id:p.fields])]
	id, reindex := old.id, true
	if replaces {
		q, _ := layoutOf(old.enc)
		if reindex = !bytes.Equal(old.enc[q.fields:q.nums], enc[p.fields:p.nums]); reindex {
			c.index(id, old.enc[q.fields:q.nums], false)
		}
	} else {
		id = string(enc[p.id:p.fields])
	}
	c.docs[id] = stored{id, enc}
	if reindex {
		c.index(id, enc[p.fields:p.nums], true)
	}
}

// index adds id to, or removes it from, the field index entries the fields
// section of an encoding names.
func (c *Collection) index(id string, fields []byte, add bool) {
	r := reader{b: fields}
	for n := r.count(); n > 0; n-- {
		pair := r.b
		r.str()
		r.str()
		update(c.fields, pair[:len(pair)-len(r.b)], id, add)
	}
}

// update adds id to, or removes it from, the ascending list m[k]. Only a key
// not seen before is allocated, and a list's last entry takes the key along.
func update(m map[string]*[]string, k []byte, id string, add bool) {
	s := m[string(k)]
	if s == nil {
		if !add {
			return
		}
		s = new([]string)
		m[string(k)] = s
	}
	i, found := slices.BinarySearch(*s, id)
	if add && !found {
		*s = slices.Insert(*s, i, id)
	} else if !add && found {
		if *s = slices.Delete(*s, i, i+1); len(*s) == 0 {
			delete(m, string(k))
		}
	}
}

// encoded returns the stored bytes of a document: read them, never write.
func (c *Collection) encoded(id string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	return d.enc, ok
}

// Get returns the document by ID.
func (c *Collection) Get(id string) (Doc, bool) {
	enc, ok := c.encoded(id)
	if !ok {
		return Doc{}, false
	}
	return decode(enc), true
}

// Find returns documents whose indexed string field equals value, in ID
// order, up to limit (<=0 means all).
func (c *Collection) Find(field, value string, limit int) []Doc {
	b := c.find(field, value, limit)
	defer transport.ReleaseBuf(b)
	return decodeAll(b)
}

// find writes Find's result as FindResp encodes it — a count, then each
// document's stored bytes — into a pooled buffer sized for it, which the
// caller owns.
func (c *Collection) find(field, value string, limit int) []byte {
	var scratch [64]byte
	pair := codec.AppendString(codec.AppendString(scratch[:0], field), value)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ids []string
	if s := c.fields[string(pair)]; s != nil {
		ids = *s
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	size := codec.LenSize(len(ids))
	for _, id := range ids {
		size += len(c.docs[id].enc)
	}
	b := codec.AppendLen(transport.AcquireBuf(size), len(ids))
	for _, id := range ids {
		b = append(b, c.docs[id].enc...)
	}
	return b
}

// decodeAll decodes what find wrote.
func decodeAll(b []byte) []Doc {
	var resp FindResp
	resp.DecodeFrom(b) //nolint:errcheck // a count and stored bytes, just written
	return resp.Docs
}

// Update atomically applies fn to the document: fn receives a copy and
// returns the new version, and no other Update, ListPrepend or AddNum can
// interleave between the read and the write. Returns NotFound if the
// document does not exist. (Plain Put remains last-writer-wins, matching
// the document stores the suite models.)
func (c *Collection) Update(id string, fn func(Doc) Doc) error {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	enc, ok := c.encoded(id)
	if !ok {
		return rpc.NotFoundf("docstore: %s/%s", c.name, id)
	}
	updated := fn(decode(enc))
	updated.ID = id
	return c.commit(encode(&updated))
}

// ListPrepend atomically prepends value to the codec-encoded []string
// stored in the document's body, creating the document if absent, and
// truncating the list to max entries when max > 0. It returns the new list
// length. This is the primitive behind social-graph timeline fan-out: many
// writers push post IDs onto follower timelines concurrently, and a plain
// Get/modify/Put cycle would lose updates under contention.
func (c *Collection) ListPrepend(id, value string, max int) (int, error) {
	n, _, err := c.listPrepend(id, value, max, false)
	return n, err
}

// listPrepend splices: the stored bytes up to the body, then a new body of
// count, value and the old list's element bytes, cut where the cap falls.
// The old list is walked, to validate it and find the cut, never decoded.
// A unique prepend of a value already listed writes nothing; inserted
// reports whether value went in, so a unique prepend is also the store's
// one-hop set insert.
func (c *Collection) listPrepend(id, value string, max int, unique bool) (n int, inserted bool, err error) {
	if id == "" {
		return 0, false, rpc.Errorf(rpc.CodeBadRequest, "docstore: empty document ID")
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	old, ok := c.encoded(id)
	if !ok {
		old = encode(&Doc{ID: id})
	}
	p, _ := layoutOf(old)
	body := reader{b: old[p.body:]}
	list := reader{b: body.str()}
	if len(list.b) > 0 {
		n = list.count()
	}
	elems, keep, dup := list.b, len(list.b), false
	for i := 0; i < n && !list.bad; i++ {
		if i == max-1 {
			keep = len(elems) - len(list.b)
		}
		dup = string(list.str()) == value || dup
	}
	if list.bad || len(list.b) != 0 {
		return 0, false, fmt.Errorf("docstore: %s/%s body is not a list", c.name, id)
	}
	if unique && dup {
		return n, false, nil
	}
	if n++; max > 0 && n > max {
		n = max
	}
	size := codec.LenSize(n) + codec.LenSize(len(value)) + len(value) + keep
	enc := make([]byte, 0, p.body+codec.LenSize(size)+size)
	enc = codec.AppendLen(append(enc, old[:p.body]...), size)
	enc = codec.AppendString(codec.AppendLen(enc, n), value)
	return n, true, c.commit(append(enc, elems[:keep]...))
}

// AddNum atomically adds delta to a numeric field (absent counts as 0) unless
// the sum would fall below floor, and reports the field's value afterwards,
// whether the document exists and whether the add applied. Adds commute, so
// replicas that apply the same ones agree. It splices, as listPrepend does:
// field's entry among the nums is replaced, or inserted in key order.
func (c *Collection) AddNum(id, field string, delta, floor int64) (value int64, found, ok bool, err error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	old, found := c.encoded(id)
	if !found {
		return 0, false, false, nil
	}
	p, _ := layoutOf(old)
	r := reader{b: old[p.nums:p.body]}
	n := r.count()
	// The entry is old[lo:hi]; an absent one belongs at lo.
	first, lo, hi := p.body-len(r.b), p.body, p.body
	for i := 0; i < n; i++ {
		at := p.body - len(r.b)
		k, v := r.str(), r.int()
		if string(k) < field {
			continue
		}
		if lo, hi = at, at; string(k) == field {
			hi, value = p.body-len(r.b), v
		}
		break
	}
	if value += delta; value < floor {
		return value - delta, true, false, nil
	}
	if lo == hi {
		n++
	}
	var scratch [64]byte
	entry := codec.AppendInt(codec.AppendString(scratch[:0], field), value)
	enc := make([]byte, 0, p.nums+codec.LenSize(n)+len(old)-first-(hi-lo)+len(entry))
	enc = append(codec.AppendLen(append(enc, old[:p.nums]...), n), old[first:lo]...)
	return value, true, true, c.commit(append(append(enc, entry...), old[hi:]...))
}

// All returns every document, ID-sorted. Intended for tests and small
// administrative scans.
func (c *Collection) All() []Doc {
	all := c.sorted()
	out := make([]Doc, len(all))
	for i, d := range all {
		out[i] = decode(d.enc)
	}
	return out
}

// sorted returns every stored document in ID order.
func (c *Collection) sorted() []stored {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.SortedFunc(maps.Values(c.docs), func(a, b stored) int { return strings.Compare(a.id, b.id) })
}

func (c *Collection) logPut(doc []byte) error {
	if wal := c.store.wal.Load(); wal != nil {
		if err := wal.append(c.name, doc); err != nil {
			return fmt.Errorf("docstore: wal append: %w", err)
		}
	}
	return nil
}
