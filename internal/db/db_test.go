package db

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

func docSchema() Schema {
	return Schema{
		{Name: "id", Type: TInt},
		{Name: "title", Type: TString},
		{Name: "size", Type: TInt},
		{Name: "score", Type: TFloat},
		{Name: "body", Type: TBytes},
		{Name: "open", Type: TBool},
		{Name: "created", Type: TTime},
	}
}

func sampleRow(id int64) Row {
	return Row{
		id,
		fmt.Sprintf("doc-%d", id),
		id * 10,
		float64(id) / 3.0,
		[]byte{1, 2, byte(id)},
		id%2 == 0,
		time.Unix(1_000_000+id, 0).UTC(),
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := docSchema()
	row := sampleRow(7)
	enc, err := EncodeRow(s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, got) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, row)
	}
}

func TestRowCodecRejectsWrongTypes(t *testing.T) {
	s := Schema{{Name: "id", Type: TInt}}
	if _, err := EncodeRow(s, Row{"not an int"}); !errors.Is(err, ErrSchema) {
		t.Fatalf("err = %v, want ErrSchema", err)
	}
	if _, err := EncodeRow(s, Row{int64(1), int64(2)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("arity err = %v, want ErrSchema", err)
	}
}

func TestRowCodecProperty(t *testing.T) {
	s := Schema{
		{Name: "id", Type: TInt},
		{Name: "s", Type: TString},
		{Name: "b", Type: TBytes},
		{Name: "f", Type: TFloat},
	}
	f := func(id int64, str string, b []byte, fl float64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		row := Row{id, str, b, fl}
		enc, err := EncodeRow(s, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(s, enc)
		if err != nil {
			return false
		}
		if b == nil {
			// Codec normalises nil to empty.
			return got[0] == row[0] && got[1] == row[1] &&
				len(got[2].([]byte)) == 0 && got[3] == row[3]
		}
		return reflect.DeepEqual(row, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyPreservesOrder(t *testing.T) {
	ints := []int64{math.MinInt64, -100, -1, 0, 1, 42, math.MaxInt64}
	for i := 1; i < len(ints); i++ {
		a, _ := EncodeKey(TInt, ints[i-1])
		b, _ := EncodeKey(TInt, ints[i])
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("int key order broken at %d vs %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{math.Inf(-1), -1e10, -1, -0.5, 0, 0.5, 1, 1e10, math.Inf(1)}
	for i := 1; i < len(floats); i++ {
		a, _ := EncodeKey(TFloat, floats[i-1])
		b, _ := EncodeKey(TFloat, floats[i])
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("float key order broken at %v vs %v", floats[i-1], floats[i])
		}
	}
	t1, _ := EncodeKey(TTime, time.Unix(100, 0))
	t2, _ := EncodeKey(TTime, time.Unix(200, 0))
	if bytes.Compare(t1, t2) >= 0 {
		t.Fatal("time key order broken")
	}
}

func TestEncodeKeyIntOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka, _ := EncodeKey(TInt, a)
		kb, _ := EncodeKey(TInt, b)
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	s := docSchema()
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("schema round trip mismatch: %#v", got)
	}
}

func memDB(t *testing.T) *Database {
	t.Helper()
	d, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestCreateInsertGet(t *testing.T) {
	d := memDB(t)
	tbl, err := d.CreateTable("docs", docSchema(), "title")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	rid, err := tbl.Insert(tx, sampleRow(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	row, err := tbl.Get(nil, rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].(string) != "doc-1" {
		t.Fatalf("row title = %v", row[1])
	}
	byPK, _, err := tbl.GetByPK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, byPK) {
		t.Fatal("Get and GetByPK disagree")
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("docs", docSchema())
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, sampleRow(1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	tx2, _ := d.Begin()
	if _, err := tbl.Insert(tx2, sampleRow(1)); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	tx2.Abort()
}

func TestUpdateDeleteAndIndexMaintenance(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("docs", docSchema(), "title")
	tx, _ := d.Begin()
	for i := int64(1); i <= 5; i++ {
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	rids, err := tbl.LookupEq("title", "doc-3")
	if err != nil || len(rids) != 1 {
		t.Fatalf("LookupEq doc-3 = %v, %v", rids, err)
	}

	tx2, _ := d.Begin()
	row := sampleRow(3)
	row[1] = "renamed"
	if err := tbl.UpdateByPK(tx2, 3, row); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	if rids, _ := tbl.LookupEq("title", "doc-3"); len(rids) != 0 {
		t.Fatal("old index entry survived update")
	}
	if rids, _ := tbl.LookupEq("title", "renamed"); len(rids) != 1 {
		t.Fatal("new index entry missing after update")
	}

	tx3, _ := d.Begin()
	if err := tbl.DeleteByPK(tx3, 3); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if _, _, err := tbl.GetByPK(nil, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetByPK after delete = %v, want ErrNotFound", err)
	}
	if rids, _ := tbl.LookupEq("title", "renamed"); len(rids) != 0 {
		t.Fatal("index entry survived delete")
	}
	if tbl.count() != 4 {
		t.Fatalf("Count = %d, want 4", tbl.count())
	}
}

func TestAbortRollsBackRowsAndIndexes(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("docs", docSchema(), "title")
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, sampleRow(1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := d.Begin()
	if _, err := tbl.Insert(tx2, sampleRow(2)); err != nil {
		t.Fatal(err)
	}
	row := sampleRow(1)
	row[1] = "mutated"
	if err := tbl.UpdateByPK(tx2, 1, row); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := tbl.GetByPK(nil, 2); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted insert visible")
	}
	got, _, err := tbl.GetByPK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].(string) != "doc-1" {
		t.Fatalf("aborted update persisted: %v", got[1])
	}
	if rids, _ := tbl.LookupEq("title", "mutated"); len(rids) != 0 {
		t.Fatal("aborted update left index entry")
	}
	if rids, _ := tbl.LookupEq("title", "doc-1"); len(rids) != 1 {
		t.Fatal("abort removed the committed index entry")
	}
}

func TestScanVisitsAllRows(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("docs", docSchema())
	tx, _ := d.Begin()
	const n = 500 // enough to span multiple pages
	for i := int64(1); i <= n; i++ {
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	seen := map[int64]bool{}
	err := tbl.Scan(nil, func(_ RID, row Row) (bool, error) {
		seen[row[0].(int64)] = true
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d rows, want %d", len(seen), n)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.CreateTable("docs", docSchema(), "title")
	tx, _ := d.Begin()
	for i := int64(1); i <= 50; i++ {
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tbl2 := d2.Table("docs")
	if tbl2 == nil {
		t.Fatal("table lost across reopen")
	}
	if names := d2.Tables(); !reflect.DeepEqual(names, []string{"docs"}) {
		t.Fatalf("tables after reopen: %q, want only docs", names)
	}
	if tbl2.count() != 50 {
		t.Fatalf("Count after reopen = %d, want 50", tbl2.count())
	}
	row, _, err := tbl2.GetByPK(nil, 37)
	if err != nil || row[1].(string) != "doc-37" {
		t.Fatalf("row 37 after reopen: %v, %v", row, err)
	}
	if rids, _ := tbl2.LookupEq("title", "doc-37"); len(rids) != 1 {
		t.Fatal("secondary index not rebuilt on reopen")
	}
}

func TestCrashRecoveryDropsUncommitted(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.CreateTable("docs", docSchema())
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, sampleRow(1)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx2, _ := d.Begin()
	if _, err := tbl.Insert(tx2, sampleRow(2)); err != nil {
		t.Fatal(err)
	}
	// Make the uncommitted work durable in the log, then "crash" without
	// committing: reopen over the same disk+store without closing.
	d.log.Flush()
	d.Pool().FlushAll()

	d2, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := d2.Table("docs")
	if tbl2.count() != 1 {
		t.Fatalf("Count after crash = %d, want 1", tbl2.count())
	}
	if _, _, err := tbl2.GetByPK(nil, 1); err != nil {
		t.Fatal("committed row lost in crash")
	}
	if _, _, err := tbl2.GetByPK(nil, 2); !errors.Is(err, ErrNotFound) {
		t.Fatal("uncommitted row survived crash")
	}
	if d2.Recovery.Losers != 1 {
		t.Fatalf("recovery losers = %d, want 1", d2.Recovery.Losers)
	}
}

func TestConcurrentInsertsDistinctRows(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("docs", docSchema())
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx, err := d.Begin()
				if err != nil {
					errCh <- err
					return
				}
				if _, err := tbl.Insert(tx, sampleRow(int64(g*1000+i))); err != nil {
					errCh <- err
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if tbl.count() != 160 {
		t.Fatalf("Count = %d, want 160", tbl.count())
	}
}

func TestRIDRoundTrip(t *testing.T) {
	r := RID{Page: 77, Slot: 12}
	got, err := ridFromBytes(r.bytes())
	if err != nil || got != r {
		t.Fatalf("RID round trip: %v, %v", got, err)
	}
	if _, err := ridFromBytes([]byte{1, 2}); err == nil {
		t.Fatal("short RID accepted")
	}
}

func TestLargeRowsSpillAcrossPages(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("blobs", Schema{
		{Name: "id", Type: TInt},
		{Name: "data", Type: TBytes},
	})
	tx, _ := d.Begin()
	payload := bytes.Repeat([]byte("x"), 1500)
	for i := int64(1); i <= 20; i++ {
		if _, err := tbl.Insert(tx, Row{i, payload}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	row, _, err := tbl.GetByPK(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(row[1].([]byte)) != 1500 {
		t.Fatal("large row truncated")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	d := memDB(t)
	tbl, _ := d.CreateTable("blobs", Schema{
		{Name: "id", Type: TInt},
		{Name: "data", Type: TBytes},
	})
	tx, _ := d.Begin()
	if _, err := tbl.Insert(tx, Row{int64(1), bytes.Repeat([]byte("x"), storage.PageSize)}); err == nil {
		t.Fatal("oversize record accepted")
	}
	tx.Abort()
}
