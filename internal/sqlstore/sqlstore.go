// Package sqlstore implements the suite's relational database — the role
// MySQL plays in DeathStarBench (the sharded, replicated MovieDB in the
// Media service and BankInfoDB in Banking). It is a minimal relational
// engine: tables with declared schemas, a primary key, secondary equality
// indexes, and ordered scans; plus sharding and replication wrappers that
// reproduce the deployment the paper describes, including per-replica
// fault injection used by the slow-server experiments.
package sqlstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dsb/internal/rpc"
)

// Schema declares a table.
type Schema struct {
	Name       string
	PrimaryKey string
	// Columns lists all column names, including the primary key.
	Columns []string
	// Indexed lists columns with secondary equality indexes.
	Indexed []string
}

// Row is one record: column name to value. Values are strings, as in the
// text protocol of the database the suite models; numeric columns are
// stored in decimal.
type Row map[string]string

func (r Row) clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// DB is one database node holding a set of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
}

type table struct {
	schema  Schema
	rows    map[string]Row
	indexes map[string]map[string]map[string]struct{} // col -> val -> pks
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable registers a table schema. Creating an existing table is an
// error, as is a schema whose primary key is not among its columns.
func (db *DB) CreateTable(s Schema) error {
	if s.Name == "" || s.PrimaryKey == "" {
		return rpc.Errorf(rpc.CodeBadRequest, "sqlstore: table needs a name and primary key")
	}
	if !contains(s.Columns, s.PrimaryKey) {
		return rpc.Errorf(rpc.CodeBadRequest, "sqlstore: primary key %q not in columns", s.PrimaryKey)
	}
	for _, idx := range s.Indexed {
		if !contains(s.Columns, idx) {
			return rpc.Errorf(rpc.CodeBadRequest, "sqlstore: indexed column %q not in columns", idx)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[s.Name]; exists {
		return rpc.Errorf(rpc.CodeConflict, "sqlstore: table %q exists", s.Name)
	}
	t := &table{
		schema:  s,
		rows:    make(map[string]Row),
		indexes: make(map[string]map[string]map[string]struct{}),
	}
	for _, col := range s.Indexed {
		t.indexes[col] = make(map[string]map[string]struct{})
	}
	db.tables[s.Name] = t
	return nil
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, rpc.NotFoundf("sqlstore: no table %q", name)
	}
	return t, nil
}

// Insert adds a row; the primary key must be present and unique.
func (db *DB) Insert(tableName string, row Row) error {
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	pk := row[t.schema.PrimaryKey]
	if pk == "" {
		return rpc.Errorf(rpc.CodeBadRequest, "sqlstore: %s: missing primary key", tableName)
	}
	for col := range row {
		if !contains(t.schema.Columns, col) {
			return rpc.Errorf(rpc.CodeBadRequest, "sqlstore: %s: unknown column %q", tableName, col)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := t.rows[pk]; dup {
		return rpc.Errorf(rpc.CodeConflict, "sqlstore: %s: duplicate key %q", tableName, pk)
	}
	t.insertLocked(pk, row.clone())
	return nil
}

func (t *table) insertLocked(pk string, row Row) {
	t.rows[pk] = row
	for col, byVal := range t.indexes {
		v, ok := row[col]
		if !ok {
			continue
		}
		pks, ok := byVal[v]
		if !ok {
			pks = make(map[string]struct{})
			byVal[v] = pks
		}
		pks[pk] = struct{}{}
	}
}

func (t *table) removeLocked(pk string) {
	row, ok := t.rows[pk]
	if !ok {
		return
	}
	for col, byVal := range t.indexes {
		if v, ok := row[col]; ok {
			if pks, ok := byVal[v]; ok {
				delete(pks, pk)
				if len(pks) == 0 {
					delete(byVal, v)
				}
			}
		}
	}
	delete(t.rows, pk)
}

// Get returns the row with the given primary key.
func (db *DB) Get(tableName, pk string) (Row, error) {
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	row, ok := t.rows[pk]
	if !ok {
		return nil, rpc.NotFoundf("sqlstore: %s: no row %q", tableName, pk)
	}
	return row.clone(), nil
}

// Select returns rows where col equals val, ordered by primary key, up to
// limit (<=0 for all). Indexed columns use the index; others scan.
func (db *DB) Select(tableName, col, val string, limit int) ([]Row, error) {
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	if !contains(t.schema.Columns, col) {
		return nil, rpc.Errorf(rpc.CodeBadRequest, "sqlstore: %s: unknown column %q", tableName, col)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var pks []string
	if byVal, indexed := t.indexes[col]; indexed {
		for pk := range byVal[val] {
			pks = append(pks, pk)
		}
	} else {
		for pk, row := range t.rows {
			if row[col] == val {
				pks = append(pks, pk)
			}
		}
	}
	sort.Strings(pks)
	if limit > 0 && len(pks) > limit {
		pks = pks[:limit]
	}
	out := make([]Row, 0, len(pks))
	for _, pk := range pks {
		out = append(out, t.rows[pk].clone())
	}
	return out, nil
}

// Update applies fn to the row with primary key pk; fn receives a copy.
// Changing the primary key inside fn is ignored.
func (db *DB) Update(tableName, pk string, fn func(Row) Row) error {
	t, err := db.table(tableName)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	row, ok := t.rows[pk]
	if !ok {
		return rpc.NotFoundf("sqlstore: %s: no row %q", tableName, pk)
	}
	updated := fn(row.clone())
	updated[t.schema.PrimaryKey] = pk
	t.removeLocked(pk)
	t.insertLocked(pk, updated)
	return nil
}

func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Cluster is a sharded, replicated deployment of the same schema set: rows
// are partitioned by primary-key hash across shards, and each shard keeps
// replicas that receive every write. Reads pick a healthy replica.
type Cluster struct {
	mu     sync.RWMutex
	shards [][]*DB // [shard][replica]
	slow   map[*DB]bool
	rr     atomic.Int64 // readers advance it holding only mu.RLock
}

// NewCluster creates a cluster with the given shard and replica counts.
func NewCluster(shards, replicas int) *Cluster {
	if shards < 1 {
		shards = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	c := &Cluster{slow: make(map[*DB]bool)}
	for i := 0; i < shards; i++ {
		group := make([]*DB, replicas)
		for j := range group {
			group[j] = NewDB()
		}
		c.shards = append(c.shards, group)
	}
	return c
}

// CreateTable creates the table on every replica of every shard.
func (c *Cluster) CreateTable(s Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, group := range c.shards {
		for _, db := range group {
			if err := db.CreateTable(s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Cluster) shardOf(pk string) []*DB {
	return c.shards[int(fnv1a(pk))%len(c.shards)]
}

// Insert writes the row to all replicas of its shard.
func (c *Cluster) Insert(tableName string, row Row, pk string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, db := range c.shardOf(pk) {
		if err := db.Insert(tableName, row); err != nil {
			return err
		}
	}
	return nil
}

// Get reads from a healthy replica of the row's shard, falling back to any
// replica if all are marked slow.
func (c *Cluster) Get(tableName, pk string) (Row, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	group := c.shardOf(pk)
	return c.pickReplica(group).Get(tableName, pk)
}

func (c *Cluster) pickReplica(group []*DB) *DB {
	rr := int(c.rr.Add(1))
	for i := 0; i < len(group); i++ {
		db := group[(rr+i)%len(group)]
		if !c.slow[db] {
			return db
		}
	}
	return group[rr%len(group)]
}

// SelectAll fans a Select out to one replica per shard and merges results
// ordered by primary key.
func (c *Cluster) SelectAll(tableName, col, val string, limit int) ([]Row, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Row
	var pkCol string
	for _, group := range c.shards {
		db := c.pickReplica(group)
		rows, err := db.Select(tableName, col, val, 0)
		if err != nil {
			return nil, err
		}
		if pkCol == "" {
			if t, err := db.table(tableName); err == nil {
				pkCol = t.schema.PrimaryKey
			}
		}
		out = append(out, rows...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][pkCol] < out[j][pkCol] })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Update applies fn on every replica of the row's shard.
func (c *Cluster) Update(tableName, pk string, fn func(Row) Row) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, db := range c.shardOf(pk) {
		if err := db.Update(tableName, pk, fn); err != nil {
			return err
		}
	}
	return nil
}

// MarkSlow flags the j-th replica of shard i as degraded so reads avoid it;
// the slow-server experiments use this to model a database shard landing on
// a bad machine.
func (c *Cluster) MarkSlow(shard, replica int, slow bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard < 0 || shard >= len(c.shards) || replica < 0 || replica >= len(c.shards[shard]) {
		return fmt.Errorf("sqlstore: no replica %d/%d", shard, replica)
	}
	db := c.shards[shard][replica]
	if slow {
		c.slow[db] = true
	} else {
		delete(c.slow, db)
	}
	return nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }
