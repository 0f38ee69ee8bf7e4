package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"tendax/internal/db"
)

// TestEngineRefusesOldLayouts: a data directory whose table has a layout
// this build no longer writes is refused with a typed error naming the
// table and the first differing column, before any row is decoded. The
// chars table's neighbour-link columns (prev, next) have the same types as
// after and key, so decoding its rows would silently derive a wrong
// document order instead of failing. The docs table's derived columns
// (modified, lastauthor, size) sit where state and authors are now.
func TestEngineRefusesOldLayouts(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	oldChars := slices.Clone(charsSchema)
	oldChars[5].Name, oldChars[6].Name = "prev", "next"
	oldDocs := slices.Insert(slices.Clone(docsSchema), 4,
		db.Column{Name: "modified", Type: db.TTime},
		db.Column{Name: "lastauthor", Type: db.TString},
		db.Column{Name: "size", Type: db.TInt})
	for _, tc := range []struct {
		table, index string
		schema       db.Schema
		row          db.Row
		want         SchemaError
	}{
		{"chars", "doc", oldChars,
			db.Row{int64(7), int64(1), int64('a'), "alice", epoch,
				int64(0), int64(0), false, "", epoch, int64(0), int64(0), epoch},
			SchemaError{Table: "chars", Column: 5, Have: "prev int", Want: "after int"}},
		{"docs", "name", oldDocs,
			db.Row{int64(1), "old", "alice", epoch, epoch, "alice", int64(1), "draft", "alice"},
			SchemaError{Table: "docs", Column: 4, Have: "modified time", Want: "state string"}},
	} {
		t.Run(tc.table, func(t *testing.T) {
			dir := t.TempDir()
			database, err := db.Open(db.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := database.CreateTable(tc.table, tc.schema, tc.index)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := database.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Insert(tx, tc.row); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := database.Close(); err != nil {
				t.Fatal(err)
			}

			database, err = db.Open(db.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer database.Close()
			e, err := NewEngine(database, nil)
			var se *SchemaError
			if !errors.As(err, &se) {
				t.Fatalf("NewEngine on the old %s layout = %v, %v; want a *SchemaError", tc.table, e, err)
			}
			if *se != tc.want {
				t.Fatalf("schema error %+v, want %+v", *se, tc.want)
			}
		})
	}
}
