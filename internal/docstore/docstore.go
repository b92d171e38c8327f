// Package docstore implements the suite's persistent document database —
// the role MongoDB plays in DeathStarBench backends (posts, profiles,
// orders, reviews, sensor data). Documents carry an opaque body (the
// owning service's codec-encoded struct) plus string fields for equality
// lookups and numbers the store adds to atomically, mirroring how the
// suite's services keep queryable metadata next to blob-ish payloads. A
// field is indexed once a Find reads it, and from then on: as MongoDB
// indexes only the fields createIndex names, a field no Find reads costs no
// index.
//
// A store lives in memory, as every tier runs it: nothing is logged or
// replayed, and a tier's documents last as long as its process.
package docstore

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

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
	// Fields are string attributes for equality lookups. The store indexes
	// a field once a Find reads it.
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
		return newCollection(own)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.collections[own] == nil {
		s.collections[own] = newCollection(own)
	}
	return s.collections[own]
}

// Collection is one document collection with the indexes its Finds read.
//
// Each document is held as its canonical wire encoding (see stored.go), and
// that slice is immutable once stored: every mutator installs a fresh one.
// So a reader takes the slice under mu and copies from it under no lock, the
// RPC service moves documents in and out without building a Doc, nothing a
// caller holds can alias what is stored, and a key may point into it.
type Collection struct {
	name string

	mu sync.RWMutex
	// encs holds the documents by number. Nothing deletes a document, so
	// numbers are dense and a replace keeps its document's number.
	encs [][]byte
	// ids maps an ID to its document's number. A key is no copy but the
	// ID's bytes inside the stored encoding, so a replace re-keys.
	ids map[string]int32
	// indexes holds an index for each field a Find has read, built on that
	// field's first Find and kept by apply from then on.
	indexes map[string]index

	// mutMu serializes mutations: a read-modify-write (ListPrepend, AddNum)
	// cannot lose another's change, and none holds mu while it builds the
	// new encoding, so readers wait only for the install. Lock order is
	// mutMu, then mu.
	mutMu sync.Mutex
}

// index maps each value of one field to the numbers of the documents that
// carry it, in ID order.
type index map[string]*[]int32

func newCollection(name string) *Collection {
	return &Collection{name: name, ids: make(map[string]int32)}
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
	c.commit(enc)
	return nil
}

// commit stores enc, a canonical encoding the caller gives up; mutMu is held.
func (c *Collection) commit(enc []byte) {
	c.mu.Lock()
	c.apply(enc)
	c.mu.Unlock()
}

// apply installs enc under mu. A replace re-indexes only when the fields'
// bytes changed.
func (c *Collection) apply(enc []byte) {
	p, _ := layoutOf(enc)
	id, fields := enc[p.id:p.fields], enc[p.fields:p.nums]
	n, replaces := c.ids[string(id)]
	if replaces {
		q, _ := layoutOf(c.encs[n])
		if was := c.encs[n][q.fields:q.nums]; bytes.Equal(was, fields) {
			fields = nil
		} else {
			c.index(n, was, false)
		}
		delete(c.ids, string(id)) // its key points into the outgoing encoding
	} else {
		n = int32(len(c.encs))
		c.encs = append(c.encs, nil)
	}
	c.encs[n] = enc
	c.ids[unsafe.String(unsafe.SliceData(id), len(id))] = n
	c.index(n, fields, true)
}

// index adds document n to or removes it from the indexes of the fields an
// encoding's fields section names; c.encs[n] holds an encoding with n's ID.
func (c *Collection) index(n int32, fields []byte, add bool) {
	r := reader{b: fields}
	for k := r.count(); k > 0; k-- {
		field, value := r.str(), r.str()
		if idx := c.indexes[string(field)]; idx != nil {
			c.post(idx, value, n, add)
		}
	}
}

// post adds n to, or removes it from, the list idx[value]. Only a value not
// seen before is allocated, and a list's last entry takes the value along.
func (c *Collection) post(idx index, value []byte, n int32, add bool) {
	s := idx[string(value)]
	if s == nil {
		if !add {
			return
		}
		s = new([]int32)
		idx[string(value)] = s
	}
	i, found := slices.BinarySearchFunc(*s, c.idOf(n), func(m int32, id []byte) int { return bytes.Compare(c.idOf(m), id) })
	if add && !found {
		*s = slices.Insert(*s, i, n)
	} else if !add && found {
		if *s = slices.Delete(*s, i, i+1); len(*s) == 0 {
			delete(idx, string(value))
		}
	}
}

// idOf returns document n's ID: the first string of its encoding.
func (c *Collection) idOf(n int32) []byte {
	r := reader{b: c.encs[n]}
	return r.str()
}

// byID returns every document's number in ID order; mu is held.
func (c *Collection) byID() []int32 {
	ns := make([]int32, len(c.encs))
	for i := range ns {
		ns[i] = int32(i)
	}
	slices.SortFunc(ns, func(a, b int32) int { return bytes.Compare(c.idOf(a), c.idOf(b)) })
	return ns
}

// valueOf returns the value an encoding gives field, if it gives one.
func valueOf(enc []byte, field string) ([]byte, bool) {
	p, _ := layoutOf(enc)
	r := reader{b: enc[p.fields:p.nums]}
	for k := r.count(); k > 0; k-- {
		if f, v := r.str(), r.str(); string(f) == field {
			return v, true
		}
	}
	return nil, false
}

// carries reports whether some stored document has field; mu is held.
func (c *Collection) carries(field string) bool {
	for _, enc := range c.encs {
		if _, ok := valueOf(enc, field); ok {
			return true
		}
	}
	return false
}

// indexOf returns field's index, building it from the stored documents if
// no Find has read the field before; mu is held for writing.
func (c *Collection) indexOf(field string) index {
	if idx := c.indexes[field]; idx != nil {
		return idx
	}
	idx := index{}
	for _, n := range c.byID() {
		if v, ok := valueOf(c.encs[n], field); ok {
			c.post(idx, v, n, true) // appends: n is last in ID order
		}
	}
	if c.indexes == nil {
		c.indexes = make(map[string]index)
	}
	c.indexes[strings.Clone(field)] = idx
	return idx
}

// encoded returns the stored bytes of a document: read them, never write.
func (c *Collection) encoded(id string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.ids[id]
	if !ok {
		return nil, false
	}
	return c.encs[n], true
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
// caller owns. A field no stored document carries finds nothing and gets no
// index, so Finds, whose field a client may name, cannot grow the store.
func (c *Collection) find(field, value string, limit int) []byte {
	c.mu.RLock()
	idx := c.indexes[field]
	if idx == nil && c.carries(field) {
		c.mu.RUnlock()
		c.mu.Lock()
		idx = c.indexOf(field)
		c.mu.Unlock()
		c.mu.RLock()
	}
	defer c.mu.RUnlock()
	var ns []int32
	if s := idx[value]; s != nil {
		ns = *s
	}
	if limit > 0 && len(ns) > limit {
		ns = ns[:limit]
	}
	size := codec.LenSize(len(ns))
	for _, n := range ns {
		size += len(c.encs[n])
	}
	b := codec.AppendLen(transport.AcquireBuf(size), len(ns))
	for _, n := range ns {
		b = append(b, c.encs[n]...)
	}
	return b
}

// decodeAll decodes what find wrote.
func decodeAll(b []byte) []Doc {
	var resp FindResp
	resp.DecodeFrom(b) //nolint:errcheck // a count and stored bytes, just written
	return resp.Docs
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
	c.commit(append(enc, elems[:keep]...))
	return n, true, nil
}

// AddNum atomically adds delta to a numeric field (absent counts as 0) unless
// the sum would fall below floor, and reports the field's value afterwards,
// whether the document existed and whether the add applied. A missing
// document is left missing, unless create is set: then it is created holding
// just field, in the same step. Adds commute, so replicas that apply the same
// ones agree. It splices, as listPrepend does: field's entry among the nums
// is replaced, or inserted in key order.
func (c *Collection) AddNum(id, field string, delta, floor int64, create bool) (value int64, found, ok bool) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	old, found := c.encoded(id)
	if !found {
		if !create || id == "" {
			return 0, false, false
		}
		old = encode(&Doc{ID: id})
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
		return value - delta, found, false
	}
	if lo == hi {
		n++
	}
	var scratch [64]byte
	entry := codec.AppendInt(codec.AppendString(scratch[:0], field), value)
	enc := make([]byte, 0, p.nums+codec.LenSize(n)+len(old)-first-(hi-lo)+len(entry))
	enc = append(codec.AppendLen(append(enc, old[:p.nums]...), n), old[first:lo]...)
	c.commit(append(append(enc, entry...), old[hi:]...))
	return value, found, true
}
