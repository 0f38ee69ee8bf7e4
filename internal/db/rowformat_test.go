package db_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
)

// engineTables returns the engine's table names, sorted, and its tables by
// name as tables over no heap: what a row of each is, and its RowEncoder. It opens an in-memory
// database under an engine to read them and closes it again, so that no
// goroutine of it runs under a fuzzer.
func engineTables(tb testing.TB) ([]string, map[string]*db.Table) {
	tb.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer database.Close()
	if _, err := core.NewEngine(database, nil); err != nil {
		tb.Fatal(err)
	}
	names, tables := database.Tables(), map[string]*db.Table{}
	for _, name := range names {
		tbl, err := db.NewTable(0, name, database.Table(name).Schema(), nil)
		if err != nil {
			tb.Fatal(err)
		}
		tables[name] = tbl
	}
	return names, tables
}

// goldenRows pins a typed key's chars row and op row — one key typed after
// instance 70000 of document 3 by alice, as instance 70001 under op 70002
// — to the byte.
var goldenRows = []struct {
	table string
	row   db.Row
	hex   string
}{
	{"chars", db.Row{int64(70001), int64(3), int64(0), int64(70000), int64(0), "k", "alice",
		time.Unix(1_000_000, 0).UTC(), []byte{}, int64(0), int64(0), int64(0)},
		// id, doc, step, after, key; text, author; created; del; src*
		"e2c508" + "06" + "00" + "e0c508" + "00" + "016b" + "05616c696365" +
			"00038d7ea4c68000" + "00" + "000000"},
	{"ops", db.Row{int64(70002), int64(3), "alice", int64(1), []byte{1, 2}, int64(0),
		time.Unix(1_000_000, 0).UTC(), false},
		// id, doc; user; kind (1: insert); chars (one stretch: 1 ID, 1 below); ref; created; undone
		"e4c508" + "06" + "05616c696365" + "02" + "020102" + "00" +
			"00038d7ea4c68000" + "00"},
}

// TestRowGolden pins the row format: a chars row and an ops row encode, by
// EncodeRow and by a table's RowEncoder, to exactly the golden bytes, and
// the golden bytes decode to the rows.
func TestRowGolden(t *testing.T) {
	_, tables := engineTables(t)
	for _, g := range goldenRows {
		tbl := tables[g.table]
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.EncodeRow(tbl.Schema(), g.row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s row encodes to\n %x\ngolden is\n %x", g.table, got, want)
		}
		enc := tbl.Encoder(1)
		if got, err := encodeWith(&enc, tbl.Schema(), g.row); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s row: the RowEncoder wrote %x, %v", g.table, got, err)
		}
		if row, err := db.DecodeRow(tbl.Schema(), want); err != nil || !reflect.DeepEqual(row, g.row) {
			t.Errorf("%s golden bytes decode to %v, %v", g.table, row, err)
		}
	}
}

// encodeWith writes row through enc, a RowEncoder of schema's table.
func encodeWith(enc *db.RowEncoder, schema db.Schema, row db.Row) ([]byte, error) {
	for i, c := range schema {
		switch c.Type {
		case db.TInt:
			enc.Int(row[i].(int64))
		case db.TString:
			enc.String(row[i].(string))
		case db.TBytes:
			enc.Bytes(row[i].([]byte))
		case db.TBool:
			enc.Bool(row[i].(bool))
		case db.TTime:
			enc.Time(row[i].(time.Time))
		default:
			return nil, errors.New("no RowEncoder method for " + c.Type.String())
		}
	}
	return enc.End()
}

// FuzzDecodeRow feeds arbitrary bytes as a row of each of the engine's
// tables. Nothing may panic; DecodeRow and CheckRecord must agree on
// whether the bytes are a row; and a row that decodes must re-encode to
// the same bytes through EncodeRow and the table's RowEncoder (one
// spelling per row), with the field of every column encoding that
// column's decoded value.
func FuzzDecodeRow(f *testing.F) {
	names, tables := engineTables(f)
	for _, g := range goldenRows {
		rec, _ := hex.DecodeString(g.hex)
		i := byte(slices.Index(names, g.table))
		f.Add(i, rec)
		f.Add(i, append(slices.Clone(rec), 0))
		f.Add(i, rec[:len(rec)-1])
	}
	f.Add(byte(0), []byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, table byte, rec []byte) {
		name := names[int(table)%len(names)]
		tbl := tables[name]
		schema := tbl.Schema()
		for col := range schema {
			_, _ = db.Field(schema, rec, col)
		}
		row, err := db.DecodeRow(schema, rec)
		if checked := db.CheckRecord(schema, rec); (err == nil) != (checked == nil) {
			t.Fatalf("%s: DecodeRow says %v, CheckRecord %v", name, err, checked)
		}
		if err != nil {
			if !errors.Is(err, db.ErrSchema) {
				t.Fatalf("%s: DecodeRow error %v is not ErrSchema", name, err)
			}
			return
		}
		if got, err := db.EncodeRow(schema, row); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("%s: %v re-encodes to %x, %v; from %x", name, row, got, err, rec)
		}
		enc := tbl.Encoder(1)
		if got, err := encodeWith(&enc, schema, row); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("%s: the RowEncoder wrote %x, %v; from %x", name, got, err, rec)
		}
		for col, c := range schema {
			fld, err := db.Field(schema, rec, col)
			if err != nil {
				t.Fatalf("%s: column %d of a decoded row: %v", name, col, err)
			}
			if want, _ := db.EncodeRow(db.Schema{c}, db.Row{row[col]}); !bytes.Equal(fld, want) {
				t.Fatalf("%s: column %d is %x, its value %v encodes to %x", name, col, fld, row[col], want)
			}
		}
	})
}
