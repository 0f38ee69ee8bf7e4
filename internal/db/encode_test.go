package db

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// allTypes is a schema with a column of every type a RowEncoder writes.
var allTypes = Schema{
	{Name: "id", Type: TInt},
	{Name: "s", Type: TString},
	{Name: "b", Type: TBytes},
	{Name: "ok", Type: TBool},
	{Name: "at", Type: TTime},
}

// TestRowEncoderMatchesEncodeRow writes rows through a RowEncoder and
// through EncodeRow: the bytes must agree, consecutive rows must not
// overlap, and a missing, extra or mistyped value must fail the row with
// ErrSchema and leave the encoder ready for the next.
func TestRowEncoderMatchesEncodeRow(t *testing.T) {
	d := memDB(t)
	tbl, err := d.CreateTable("all", allTypes)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_000_000, 42).UTC()
	enc := tbl.Encoder(1)
	var recs [][]byte
	for i := int64(1); i <= 5; i++ {
		enc.Int(i)
		enc.String(string(rune('a' + i)))
		enc.Bytes(bytes.Repeat([]byte{byte(i)}, int(i)*40))
		enc.Bool(i%2 == 0)
		enc.Time(at.Add(time.Duration(i)))
		rec, err := enc.End()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	for i, rec := range recs {
		id := int64(i + 1)
		want, err := EncodeRow(allTypes, Row{id, string(rune('a' + id)),
			bytes.Repeat([]byte{byte(id)}, int(id)*40), id%2 == 0, at.Add(time.Duration(id))})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("row %d: encoder wrote %x, EncodeRow %x", id, rec, want)
		}
		if cap(rec) != len(rec) {
			t.Fatalf("row %d: capacity %d past its %d bytes reaches the next row", id, cap(rec), len(rec))
		}
	}

	bad := map[string]func(){
		"missing column": func() { enc.Int(1) },
		"extra column": func() {
			enc.Int(1)
			enc.String("")
			enc.Bytes(nil)
			enc.Bool(true)
			enc.Time(at)
			enc.Int(2)
		},
		"mistyped column": func() {
			enc.Int(1)
			enc.Int(2)
			enc.Bytes(nil)
			enc.Bool(true)
			enc.Time(at)
		},
	}
	for name, write := range bad {
		write()
		if rec, err := enc.End(); !errors.Is(err, ErrSchema) || rec != nil {
			t.Errorf("%s: End = %x, %v; want ErrSchema", name, rec, err)
		}
		enc.Int(9)
		enc.String("")
		enc.Bytes(nil)
		enc.Bool(false)
		enc.Time(at)
		if _, err := enc.End(); err != nil {
			t.Errorf("%s: the row after it failed: %v", name, err)
		}
	}
}

// TestInsertRecordsChecks writes records through the record-level insert:
// a record that is not framed as a row of the table is refused, as is a
// primary key the table holds or the batch repeats, single or batched, and
// an aborted insert leaves neither rows nor index entries behind.
func TestInsertRecordsChecks(t *testing.T) {
	d := memDB(t)
	schema := Schema{{Name: "id", Type: TInt}, {Name: "tag", Type: TString}}
	tbl, err := d.CreateTable("rows", schema, "tag")
	if err != nil {
		t.Fatal(err)
	}
	enc := tbl.Encoder(4)
	row := func(id int64, tag string) []byte {
		enc.Int(id)
		enc.String(tag)
		rec, err := enc.End()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	tx, _ := d.Begin()
	if err := tbl.InsertRecords(tx, row(1, "a"), row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertRecords(tx, row(3, "c")); err != nil {
		t.Fatal(err)
	}
	refused := map[string][][]byte{
		"trailing bytes":      {append(row(4, "d"), 0)},
		"truncated":           {row(4, "d")[:10]},
		"existing key":        {row(2, "x")},
		"existing key, batch": {row(4, "d"), row(1, "x")},
		"repeated key, batch": {row(5, "e"), row(5, "f")},
	}
	for name, recs := range refused {
		if err := tbl.InsertRecords(tx, recs...); err == nil {
			t.Errorf("%s: InsertRecords accepted %x", name, recs)
		}
	}
	if err := tbl.UpdateRecord(tx, row(2, "bb")[:9]); !errors.Is(err, ErrSchema) {
		t.Errorf("UpdateRecord of a truncated record: %v, want ErrSchema", err)
	}
	if err := tbl.UpdateRecord(tx, row(2, "bb")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := tbl.GetByPK(nil, 2); err != nil || got[1] != "bb" {
		t.Fatalf("row 2 = %v, %v; want tag bb", got, err)
	}

	tx, _ = d.Begin()
	if err := tbl.InsertRecords(tx, row(6, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertRecords(tx, row(7, "a"), row(8, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Count(); n != 3 {
		t.Fatalf("after the abort the table counts %d rows, want 3", n)
	}
	if rids, err := tbl.LookupEq("tag", "a"); err != nil || len(rids) != 1 {
		t.Fatalf("tag a after the abort: %v, %v; want one row", rids, err)
	}
}

// maxOneRowInsertAllocs bounds one Table.Insert of a row with one indexed
// column inside an open transaction: the encoded row, the row lock's entry
// and grant, and the two undo closures (heap and index) — 5. The B-trees
// copy the primary and secondary keys into their leaves' arenas, which
// allocate only when a leaf splits or its arena grows; separate key copies
// cost 7, and boxing each RID into the trees' values and building
// one-element record and RID slices 10.
const maxOneRowInsertAllocs = 5

// TestOneRowInsertAllocs gates maxOneRowInsertAllocs.
func TestOneRowInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	d := memDB(t)
	tbl, err := d.CreateTable("rows", Schema{{Name: "id", Type: TInt}, {Name: "doc", Type: TInt}}, "doc")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2000
	rows := make([]Row, runs+1)
	for i := range rows {
		rows[i] = Row{int64(1000 + i), int64(7)}
	}
	tx, _ := d.Begin()
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, e := tbl.Insert(tx, rows[i]); e != nil && err == nil {
			err = e
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f allocations per one-row insert", allocs)
	if allocs > maxOneRowInsertAllocs {
		t.Errorf("a one-row insert allocated %.1f times, over the budget of %d", allocs, maxOneRowInsertAllocs)
	}
}
