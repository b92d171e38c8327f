package sqlstore

import "sort"

// Delete removes the row, reporting whether it existed.
func (db *DB) Delete(tableName, pk string) (bool, error) {
	t, err := db.table(tableName)
	if err != nil {
		return false, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := t.rows[pk]; !ok {
		return false, nil
	}
	t.removeLocked(pk)
	return true, nil
}

// Count returns the number of rows in the table.
func (db *DB) Count(tableName string) (int, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(t.rows), nil
}

// Scan returns up to limit rows ordered by primary key starting after the
// given key ("" for the beginning), for paging through a table.
func (db *DB) Scan(tableName, afterPK string, limit int) ([]Row, error) {
	t, err := db.table(tableName)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	pks := make([]string, 0, len(t.rows))
	for pk := range t.rows {
		if pk > afterPK {
			pks = append(pks, pk)
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
