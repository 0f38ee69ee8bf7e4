package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"tendax/internal/db"
)

// TestEngineRefusesOldCharsLayout: a data directory whose chars table still
// has the neighbour-link columns (prev, next) is refused with a typed error
// naming the table and the first differing column. Those columns have the
// same types as after and key, so decoding the rows would silently derive a
// wrong document order instead of failing.
func TestEngineRefusesOldCharsLayout(t *testing.T) {
	dir := t.TempDir()
	database, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	old := slices.Clone(charsSchema)
	old[5].Name, old[6].Name = "prev", "next"
	chars, err := database.CreateTable("chars", old, "doc")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := database.Begin()
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(0, 0).UTC()
	if _, err := chars.Insert(tx, db.Row{int64(7), int64(1), int64('a'), "alice", epoch,
		int64(0), int64(0), false, "", epoch, int64(0), int64(0), epoch}); err != nil {
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
		t.Fatalf("NewEngine on the old chars layout = %v, %v; want a *SchemaError", e, err)
	}
	if se.Table != "chars" || se.Column != 5 || se.Have != "prev int" || se.Want != "after int" {
		t.Fatalf("schema error %+v, want chars column 5: prev int in the data, after int in this build", *se)
	}
}
