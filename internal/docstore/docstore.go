// Package docstore implements the suite's persistent document database —
// the role MongoDB plays in DeathStarBench backends (posts, profiles,
// orders, reviews, sensor data). Documents carry an opaque body (the
// owning service's codec-encoded struct) plus declared scalar fields that
// the store indexes for equality and range queries, mirroring how the
// suite's services keep queryable metadata next to blob-ish payloads.
//
// Durability is optional: with a write-ahead log attached, every mutation
// is appended to the log before being applied, and Open replays the log on
// startup. The services use in-memory stores in tests and examples, and
// WAL-backed stores in the cmd/ tools.
package docstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dsb/internal/codec"
	"dsb/internal/rpc"
)

// Doc is one stored document.
type Doc struct {
	// ID is the primary key, unique within a collection.
	ID string
	// Fields are indexed string attributes (equality lookups).
	Fields map[string]string
	// Nums are indexed numeric attributes (equality and range lookups,
	// e.g. timestamps for timeline queries).
	Nums map[string]int64
	// Body is the opaque payload owned by the writing service.
	Body []byte
}

func (d Doc) clone() Doc {
	out := Doc{ID: d.ID}
	if d.Fields != nil {
		out.Fields = make(map[string]string, len(d.Fields))
		for k, v := range d.Fields {
			out.Fields[k] = v
		}
	}
	if d.Nums != nil {
		out.Nums = make(map[string]int64, len(d.Nums))
		for k, v := range d.Nums {
			out.Nums[k] = v
		}
	}
	if d.Body != nil {
		out.Body = append([]byte(nil), d.Body...)
	}
	return out
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
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.collections[name]; !ok {
		c = newCollection(name, s)
		s.collections[name] = c
	}
	return c
}

// Collections returns collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collection is one document collection with its indexes.
//
// Ownership rule: a stored Doc is never mutated in place — every mutator
// replaces the map entry with a new value — so the RPC service may read a
// stored Doc (encode it) without copying and may store a Doc it has just
// decoded without copying, while in-process callers of the exported methods
// still hand in and get back copies they are free to modify.
type Collection struct {
	name  string
	store *Store

	mu     sync.RWMutex
	docs   map[string]Doc
	fields map[string]map[string]map[string]struct{} // field -> value -> ids
	nums   map[string][]numEntry                     // field -> sorted (value, id)

	// mutMu serializes mutations: a read-modify-write (Update, ListPrepend)
	// cannot lose another's change, and because it is held across the WAL
	// append and the apply, log order is apply order. Lock order is mutMu,
	// then the WAL's own mutex inside logOp, then mu; logOp takes no store
	// lock.
	mutMu sync.Mutex
}

type numEntry struct {
	val int64
	id  string
}

func newCollection(name string, store *Store) *Collection {
	return &Collection{
		name:   name,
		store:  store,
		docs:   make(map[string]Doc),
		fields: make(map[string]map[string]map[string]struct{}),
		nums:   make(map[string][]numEntry),
	}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Put inserts or replaces a document by ID, storing a copy of d.
func (c *Collection) Put(d Doc) error { return c.put(d.clone()) }

// put is Put for a document nothing else references: it is stored as is.
func (c *Collection) put(d Doc) error {
	if d.ID == "" {
		return rpc.Errorf(rpc.CodeBadRequest, "docstore: empty document ID")
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	return c.commit(d)
}

// commit logs and then stores d, which the caller gives up; mutMu is held.
func (c *Collection) commit(d Doc) error {
	if err := c.logOp(opPut, d); err != nil {
		return err
	}
	c.mu.Lock()
	c.putLocked(d)
	c.mu.Unlock()
	return nil
}

func (c *Collection) putLocked(d Doc) {
	if old, exists := c.docs[d.ID]; exists {
		c.unindexLocked(old)
	}
	c.docs[d.ID] = d
	for f, v := range d.Fields {
		byVal, ok := c.fields[f]
		if !ok {
			byVal = make(map[string]map[string]struct{})
			c.fields[f] = byVal
		}
		ids, ok := byVal[v]
		if !ok {
			ids = make(map[string]struct{})
			byVal[v] = ids
		}
		ids[d.ID] = struct{}{}
	}
	for f, v := range d.Nums {
		c.nums[f] = insertNum(c.nums[f], numEntry{v, d.ID})
	}
}

func (c *Collection) unindexLocked(d Doc) {
	for f, v := range d.Fields {
		if byVal, ok := c.fields[f]; ok {
			if ids, ok := byVal[v]; ok {
				delete(ids, d.ID)
				if len(ids) == 0 {
					delete(byVal, v)
				}
			}
		}
	}
	for f, v := range d.Nums {
		c.nums[f] = removeNum(c.nums[f], numEntry{v, d.ID})
	}
}

func insertNum(s []numEntry, e numEntry) []numEntry {
	i := sort.Search(len(s), func(i int) bool {
		return s[i].val > e.val || (s[i].val == e.val && s[i].id >= e.id)
	})
	s = append(s, numEntry{})
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func removeNum(s []numEntry, e numEntry) []numEntry {
	i := sort.Search(len(s), func(i int) bool {
		return s[i].val > e.val || (s[i].val == e.val && s[i].id >= e.id)
	})
	if i < len(s) && s[i] == e {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// Get returns a copy of the document by ID.
func (c *Collection) Get(id string) (Doc, bool) {
	d, ok := c.view(id)
	if !ok {
		return Doc{}, false
	}
	return d.clone(), true
}

// view returns the stored document itself: read it, never modify it.
func (c *Collection) view(id string) (Doc, bool) {
	c.mu.RLock()
	d, ok := c.docs[id]
	c.mu.RUnlock()
	return d, ok
}

// Delete removes a document, reporting whether it existed.
func (c *Collection) Delete(id string) (bool, error) {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	if err := c.logOp(opDelete, Doc{ID: id}); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[id]
	if !ok {
		return false, nil
	}
	c.unindexLocked(d)
	delete(c.docs, id)
	return true, nil
}

// Find returns documents whose indexed string field equals value, in ID
// order, up to limit (<=0 means all).
func (c *Collection) Find(field, value string, limit int) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.fields[field][value]
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	if limit > 0 && len(sorted) > limit {
		sorted = sorted[:limit]
	}
	out := make([]Doc, 0, len(sorted))
	for _, id := range sorted {
		out = append(out, c.docs[id].clone())
	}
	return out
}

// FindRange returns documents whose numeric field lies in [min, max],
// sorted descending by the field (newest-first for timestamp fields), up to
// limit (<=0 means all).
func (c *Collection) FindRange(field string, min, max int64, limit int) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.nums[field]
	lo := sort.Search(len(s), func(i int) bool { return s[i].val >= min })
	hi := sort.Search(len(s), func(i int) bool { return s[i].val > max })
	out := make([]Doc, 0, hi-lo)
	for i := hi - 1; i >= lo; i-- {
		out = append(out, c.docs[s[i].id].clone())
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Update atomically applies fn to the document: fn receives a copy and
// returns the new version, and no other Update or ListPrepend can
// interleave between the read and the write. Returns NotFound if the
// document does not exist. (Plain Put remains last-writer-wins, matching
// the document stores the suite models.)
func (c *Collection) Update(id string, fn func(Doc) Doc) error {
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	d, ok := c.view(id)
	if !ok {
		return rpc.NotFoundf("docstore: %s/%s", c.name, id)
	}
	updated := fn(d.clone())
	updated.ID = id
	return c.commit(updated)
}

// ListPrepend atomically prepends value to the codec-encoded []string
// stored in the document's body, creating the document if absent, and
// truncating the list to max entries when max > 0. It returns the new list
// length. This is the primitive behind social-graph timeline fan-out: many
// writers push post IDs onto follower timelines concurrently, and a plain
// Get/modify/Put cycle would lose updates under contention.
func (c *Collection) ListPrepend(id, value string, max int) (int, error) {
	return c.listPrepend(id, value, max, false)
}

// ListPrependUnique is ListPrepend that skips the write when value is
// already in the list, returning the unchanged length. It is the
// store-level idempotency backstop for at-least-once delivery pipelines:
// whatever slips past consumer-side dedup — a redelivery consumed by a
// different replica, a crash-window replay — cannot double-prepend here.
func (c *Collection) ListPrependUnique(id, value string, max int) (int, error) {
	return c.listPrepend(id, value, max, true)
}

func (c *Collection) listPrepend(id, value string, max int, unique bool) (int, error) {
	if id == "" {
		return 0, rpc.Errorf(rpc.CodeBadRequest, "docstore: empty document ID")
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()

	// The new version shares the stored one's index maps and replaces only
	// Body, so nothing stored is modified and nothing needs copying.
	d, ok := c.view(id)
	if !ok {
		d = Doc{ID: id}
	}
	var list []string
	if len(d.Body) > 0 {
		if err := codec.Unmarshal(d.Body, &list); err != nil {
			return 0, fmt.Errorf("docstore: %s/%s body is not a list: %w", c.name, id, err)
		}
	}
	if unique {
		for _, v := range list {
			if v == value {
				return len(list), nil
			}
		}
	}
	list = append(list, "")
	copy(list[1:], list)
	list[0] = value
	if max > 0 && len(list) > max {
		list = list[:max]
	}
	body, err := codec.Marshal(list)
	if err != nil {
		return 0, err
	}
	d.Body = body
	if err := c.commit(d); err != nil {
		return 0, err
	}
	return len(list), nil
}

// All returns every document, ID-sorted. Intended for tests and small
// administrative scans.
func (c *Collection) All() []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Doc, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.docs[id].clone())
	}
	return out
}

func (c *Collection) logOp(kind byte, d Doc) error {
	wal := c.store.wal.Load()
	if wal == nil {
		return nil
	}
	if err := wal.append(kind, c.name, d); err != nil {
		return fmt.Errorf("docstore: wal append: %w", err)
	}
	return nil
}
