package db

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/wal"
)

var updateRollbackGolden = flag.Bool("update-rollback", false,
	"rewrite testdata/rollback.golden with the records the rollback cases log")

// rollbackSchema is the rollback test's table: a primary key, an indexed
// tag and a body whose size decides where a row fits.
var rollbackSchema = Schema{
	{Name: "id", Type: TInt},
	{Name: "tag", Type: TString},
	{Name: "body", Type: TBytes},
}

// rollbackRow is row pk of the rollback test with a body of n bytes.
func rollbackRow(pk int64, tag string, n int) Row {
	return Row{pk, tag, bytes.Repeat([]byte{byte(pk)}, n)}
}

// rollbackCases are the transactions TestRollbackRestoresState cuts after
// each of their records. Every case starts from the same twelve committed
// rows of 300-byte bodies, which fill one page.
var rollbackCases = []struct {
	name string
	run  func(tx *txn.Txn, tbl *Table) error
}{
	{"insert one row", func(tx *txn.Txn, tbl *Table) error {
		rec, err := EncodeRow(rollbackSchema, rollbackRow(100, "new", 40))
		if err != nil {
			return err
		}
		return tbl.InsertRecords(tx, rec)
	}},
	{"insert 128 rows", func(tx *txn.Txn, tbl *Table) error {
		recs := make([][]byte, 128)
		for i := range recs {
			pk := int64(200 + i)
			rec, err := EncodeRow(rollbackSchema, rollbackRow(pk, fmt.Sprintf("t%d", pk%5), 20))
			if err != nil {
				return err
			}
			recs[i] = rec
		}
		return tbl.InsertRecords(tx, recs...)
	}},
	{"grown update relocates", func(tx *txn.Txn, tbl *Table) error {
		return tbl.UpdateByPK(tx, 3, rollbackRow(3, "moved", 900))
	}},
	{"update in place changes key", func(tx *txn.Txn, tbl *Table) error {
		return tbl.UpdateByPK(tx, 7, rollbackRow(7, "renamed", 250))
	}},
	{"delete", func(tx *txn.Txn, tbl *Table) error {
		return tbl.DeleteByPK(tx, 5)
	}},
}

// rollbackDB is a fresh in-memory database holding the rollback test's
// committed rows. Its transactions' lock waits time out after a
// millisecond: that is how a case is cut after a record.
func rollbackDB(t *testing.T) (*Database, *Table, *storage.MemDisk, *wal.MemStore) {
	t.Helper()
	disk, store := storage.NewMemDisk(), wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.tm = txn.NewManager(d.log, txn.NewLockManager(time.Millisecond))
	d.tm.SeedIDs(loggedMaxTxnID(t, d))
	tbl, err := d.CreateTable("rows", rollbackSchema, "tag")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for pk := int64(1); pk <= 12; pk++ {
		if _, err := tbl.Insert(tx, rollbackRow(pk, fmt.Sprintf("t%d", pk%4), 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return d, tbl, disk, store
}

// tableState renders what a rollback must restore: every live record by
// RID, every entry of the primary key and of each secondary index, and the
// row count, one sorted line each.
func tableState(tbl *Table) string {
	var lines []string
	_ = tbl.heap.ScanDirty(func(rid RID, rec []byte) error {
		lines = append(lines, fmt.Sprintf("row %v %x", rid, rec))
		return nil
	})
	tbl.mu.RLock()
	tbl.pk.AscendRange(nil, nil, func(k []byte, rid RID) bool {
		lines = append(lines, fmt.Sprintf("pk %x %v", k, rid))
		return true
	})
	for _, ix := range tbl.indexes {
		ix.tree.AscendRange(nil, nil, func(k []byte, rid RID) bool {
			lines = append(lines, fmt.Sprintf("index %s %x %v", ix.Column, k, rid))
			return true
		})
	}
	tbl.mu.RUnlock()
	slices.Sort(lines)
	return strings.Join(lines, "\n") + fmt.Sprintf("\ncount %d", tbl.count())
}

// loggedTxnID returns tx's ID as its newest log record carries it, or 0
// while it has logged nothing.
func loggedTxnID(t *testing.T, d *Database, tx *txn.Txn) uint64 {
	t.Helper()
	var id uint64
	if err := d.Log().Iterate(func(r *wal.Record) error {
		if r.LSN == tx.LastLSN() {
			id = r.TxnID
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return id
}

// loggedMaxTxnID returns the largest transaction ID the log holds: a new
// manager seeded above it reuses none, as after recovery.
func loggedMaxTxnID(t *testing.T, d *Database) uint64 {
	t.Helper()
	var id uint64
	if err := d.Log().Iterate(func(r *wal.Record) error {
		id = max(id, r.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return id
}

// txnRecords renders every record transaction id logged, in log order.
func txnRecords(t *testing.T, d *Database, id uint64) []string {
	t.Helper()
	var out []string
	if err := d.Log().Iterate(func(r *wal.Record) error {
		if r.TxnID == id {
			out = append(out, fmt.Sprintf("lsn=%d type=%d prev=%d page=%d slot=%d op=%d owner=%d off=%d before=%x after=%x undonext=%d",
				r.LSN, r.Type, r.PrevLSN, r.Page, r.Slot, r.Op, r.Owner, r.Off, r.Before, r.After, r.UndoNext))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRollbackRestoresState runs each rollback case and aborts it after
// each of its records in turn: a case logging k records is cut after
// record i < k by a second transaction holding the row lock record i+1
// needs, so the case's lock wait times out, and it is aborted once more
// after its last record. After every abort the heap's live records, the
// primary key, every secondary index and Count equal the state before the
// transaction, and so does the state a crash image recovers. Every record
// the transaction logged — its updates, the CLRs of its rollback and the
// abort — equals testdata/rollback.golden (spelt out, or for the 128-row
// case as a digest per cut), so a change to how a rollback is driven
// cannot change a byte it logs.
func TestRollbackRestoresState(t *testing.T) {
	var golden []string
	for _, c := range rollbackCases {
		// A full run names the rows the case's records touch; placement is
		// deterministic, so every fresh database repeats it.
		d, tbl, _, _ := rollbackDB(t)
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.run(tx, tbl); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.Log().Flush(); err != nil {
			t.Fatal(err)
		}
		var rows []RID
		id := loggedTxnID(t, d, tx)
		if err := d.Log().Iterate(func(r *wal.Record) error {
			if r.TxnID == id && r.Type == wal.RecUpdate {
				rows = append(rows, RID{storage.PageID(r.Page), int(r.Slot)})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s logged no record", c.name)
		}

		for cut := 1; cut <= len(rows); cut++ {
			label := fmt.Sprintf("%s, cut after record %d of %d", c.name, cut, len(rows))
			d, tbl, disk, store := rollbackDB(t)
			before := tableState(tbl)
			var blocker *txn.Txn
			if cut < len(rows) {
				if blocker, err = d.Begin(); err != nil {
					t.Fatal(err)
				}
				if err := blocker.Lock(rowKey(tbl.ID(), rows[cut]), txn.Exclusive); err != nil {
					t.Fatal(err)
				}
			}
			tx, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			err = c.run(tx, tbl)
			if blocker != nil && !errors.Is(err, txn.ErrLockTimeout) {
				t.Fatalf("%s: the case returned %v, want a lock timeout", label, err)
			} else if blocker == nil && err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("%s: abort: %v", label, err)
			}
			if blocker != nil {
				if err := blocker.Abort(); err != nil {
					t.Fatal(err)
				}
			}
			logged := txnRecords(t, d, loggedTxnID(t, d, tx))
			// cut updates, cut CLRs and the abort.
			if len(logged) != 2*cut+1 {
				t.Fatalf("%s: the transaction logged %d records, want %d:\n%s",
					label, len(logged), 2*cut+1, strings.Join(logged, "\n"))
			}
			if got := tableState(tbl); got != before {
				t.Fatalf("%s: state after the rollback\n%s\nwant\n%s", label, got, before)
			}

			data, err := store.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			kept := wal.NewMemStore()
			if err := kept.Append(data); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenWith(disk.SnapshotHead(math.MaxInt), kept, Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			got := tableState(d2.Table("rows"))
			d2.Close()
			if got != before {
				t.Fatalf("%s: state a crash image recovers\n%s\nwant\n%s", label, got, before)
			}

			// A case of a few records is spelt out; the long one is pinned
			// by a digest per cut.
			sum := sha256.Sum256([]byte(strings.Join(logged, "\n")))
			golden = append(golden, fmt.Sprintf("# %s: sha256 %x", label, sum[:16]))
			if len(rows) <= 2 {
				golden = append(golden, logged...)
			}
		}
	}

	const path = "testdata/rollback.golden"
	if *updateRollbackGolden {
		if err := os.WriteFile(path, []byte(strings.Join(golden, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < max(len(golden), len(want)); i++ {
		var g, w string
		if i < len(golden) {
			g = golden[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("line %d of the logged records differs from %s:\n got %s\nwant %s", i+1, path, g, w)
		}
	}
}
