// Package sqlstore implements the suite's relational database — the role
// MySQL plays in DeathStarBench (MovieDB in the Media service and
// BankInfoDB in Banking). It is a minimal relational engine: tables with
// declared schemas, a primary key, secondary equality indexes, and ordered
// scans. One DB is one database node; a tier that wants its rows
// partitioned across nodes gets that from the Stack's shard.Router, not
// from here.
package sqlstore

import (
	"sort"
	"sync"

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
