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
// chars table held one row per character, first with neighbour-link
// columns (prev, next), then with the after and key anchors; either way
// its rune column sits where a run's step is now, with the same type, so
// decoding its rows would silently read runes as steps instead of
// failing. The docs table's derived columns (modified, lastauthor, size)
// sit where state and authors are now.
func TestEngineRefusesOldLayouts(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	perChar := db.Schema{
		{Name: "id", Type: db.TInt},
		{Name: "doc", Type: db.TInt},
		{Name: "r", Type: db.TInt},
		{Name: "author", Type: db.TString},
		{Name: "created", Type: db.TTime},
		{Name: "after", Type: db.TInt},
		{Name: "key", Type: db.TInt},
		{Name: "deleted", Type: db.TBool},
		{Name: "delby", Type: db.TString},
		{Name: "delat", Type: db.TTime},
		{Name: "srcdoc", Type: db.TInt},
		{Name: "srcchar", Type: db.TInt},
		{Name: "restored", Type: db.TTime},
	}
	linked := slices.Clone(perChar)
	linked[5].Name, linked[6].Name = "prev", "next"
	charRow := db.Row{int64(7), int64(1), int64('a'), "alice", epoch,
		int64(0), int64(0), false, "", epoch, int64(0), int64(0), epoch}
	oldDocs := slices.Insert(slices.Clone(docsSchema), 4,
		db.Column{Name: "modified", Type: db.TTime},
		db.Column{Name: "lastauthor", Type: db.TString},
		db.Column{Name: "size", Type: db.TInt})
	spelt := slices.Clone(opsSchema)
	spelt[3].Type = db.TString
	for _, tc := range []struct {
		name, table, index string
		schema             db.Schema
		row                db.Row
		want               SchemaError
	}{
		{"chars", "chars", "doc", linked, charRow,
			SchemaError{Table: "chars", Column: 2, Have: "r int", Want: "step int"}},
		{"chars one row per character", "chars", "doc", perChar, charRow,
			SchemaError{Table: "chars", Column: 2, Have: "r int", Want: "step int"}},
		{"docs", "docs", "name", oldDocs,
			db.Row{int64(1), "old", "alice", epoch, epoch, "alice", int64(1), "draft", "alice"},
			SchemaError{Table: "docs", Column: 4, Have: "modified time", Want: "state string"}},
		{"ops kind spelt", "ops", "doc", spelt,
			db.Row{int64(9), int64(1), "alice", "insert", []byte{1, 2}, int64(0), epoch, false},
			SchemaError{Table: "ops", Column: 3, Have: "kind string", Want: "kind int"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
