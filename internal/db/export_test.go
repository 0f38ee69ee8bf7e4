package db

import "sort"

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tables[name]
}

// Tables returns all user table names, sorted.
func (d *Database) Tables() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// count returns the number of live rows (by primary-key index).
func (t *Table) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pk.Len()
}
