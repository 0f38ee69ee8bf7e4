package db

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"testing"

	"tendax/internal/storage"
	"tendax/internal/txn"
	"tendax/internal/wal"
)

// model is the reference the crash-point test checks recovery against: the
// table as a map from primary key to body, and every committed transaction
// as a function on it.
type model map[int64][]byte

// crashScript drives one table through every kind of heap record and
// recovery path and remembers what each transaction did. No page is written
// back after its last FlushAll, so the disk as of then (disk) plus any log
// prefix at least mark bytes long is an image a crash could leave.
type crashScript struct {
	t       *testing.T
	d       *Database
	live    *storage.MemDisk
	store   *wal.MemStore
	tbl     *Table
	effects map[uint64]func(model) // by transaction ID
	commits []committed            // in commit order
	mark    int
	disk    *storage.MemDisk
}

type committed struct {
	lsn wal.LSN
	txn uint64
}

func fill(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

func (s *crashScript) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

func (s *crashScript) begin() *txn.Txn {
	s.t.Helper()
	tx, err := s.d.Begin()
	s.must(err)
	return tx
}

func (s *crashScript) commit(tx *txn.Txn) {
	s.t.Helper()
	s.must(tx.Commit())
	s.commits = append(s.commits, committed{tx.CommitLSN(), tx.ID()})
}

func (s *crashScript) rid(pk int64) RID {
	s.t.Helper()
	_, rid, err := s.tbl.GetByPK(nil, pk)
	s.must(err)
	return rid
}

func (s *crashScript) also(tx *txn.Txn, fn func(model)) {
	prev := s.effects[tx.ID()]
	s.effects[tx.ID()] = func(m model) {
		if prev != nil {
			prev(m)
		}
		fn(m)
	}
}

func (s *crashScript) insert(tx *txn.Txn, pk int64, b []byte) {
	s.t.Helper()
	_, err := s.tbl.Insert(tx, Row{pk, b})
	s.must(err)
	s.also(tx, func(m model) { m[pk] = b })
}

func (s *crashScript) update(tx *txn.Txn, pk int64, b []byte) {
	s.t.Helper()
	s.must(s.tbl.Update(tx, s.rid(pk), Row{pk, b}))
	s.also(tx, func(m model) { m[pk] = b })
}

func (s *crashScript) delete(tx *txn.Txn, pk int64) {
	s.t.Helper()
	s.must(s.tbl.Delete(tx, s.rid(pk)))
	s.also(tx, func(m model) { delete(m, pk) })
}

func (s *crashScript) run() {
	s.effects = map[uint64]func(model){}
	tbl, err := s.d.CreateTable("rows", Schema{{Name: "id", Type: TInt}, {Name: "body", Type: TBytes}})
	s.must(err)
	s.tbl = tbl

	// Twelve ~250-byte rows: most of one page.
	t1 := s.begin()
	for pk := int64(1); pk <= 12; pk++ {
		s.insert(t1, pk, fill(byte('a'+pk), 250))
	}
	s.commit(t1)

	// t2 stays open across the checkpoint and the write-back: its first
	// update reaches the disk uncommitted.
	t2 := s.begin()
	b2 := fill('b', 250)
	copy(b2[100:], "relinked")
	s.update(t2, 2, b2)

	_, err = s.d.FuzzyCheckpoint()
	s.must(err)

	// A splice that changes the row's length.
	t3 := s.begin()
	s.update(t3, 3, append(fill('c', 120), fill('C', 140)...))
	s.commit(t3)

	s.must(s.d.Pool().FlushAll())
	s.mark = s.store.Len()
	s.disk = s.live.Snapshot()

	// From here on, everything is in the log only.
	s.delete(t2, 4)
	s.commit(t2)

	// A growing update that no longer fits its page: the row relocates.
	t4 := s.begin()
	was := s.rid(6)
	s.update(t4, 6, fill('g', 1500))
	if now := s.rid(6); now.Page == was.Page {
		s.t.Fatalf("row 6 did not relocate (page %d)", now.Page)
	}
	s.commit(t4)

	// Rolled back at runtime: an update, a delete and an insert, each undone
	// by a CLR.
	t5 := s.begin()
	s.update(t5, 7, fill('h', 200))
	s.delete(t5, 8)
	s.insert(t5, 50, fill('x', 90))
	s.must(t5.Abort())

	t6 := s.begin()
	s.insert(t6, 60, fill('y', 80))
	b9 := fill(byte('a'+9), 250)
	copy(b9[10:], "neighbour")
	s.update(t6, 9, b9)
	s.commit(t6)

	// Left in flight: durable records, no commit.
	t7 := s.begin()
	s.insert(t7, 70, fill('z', 60))
	s.update(t7, 10, fill(byte('a'+10), 251))
	s.must(s.d.Log().Flush())
}

// expect is the model after every commit with an LSN up to last.
func (s *crashScript) expect(last wal.LSN) model {
	m := model{}
	for _, c := range s.commits {
		if c.lsn <= last {
			s.effects[c.txn](m)
		}
	}
	return m
}

// recoverAt recovers the crash image whose log is the first cut bytes of
// data, crashes again straight after, recovers again, and compares the
// table with want after each recovery.
func (s *crashScript) recoverAt(data []byte, cut int, want model) error {
	disk := s.disk.Snapshot()
	store := wal.NewMemStore()
	if err := store.Append(data[:cut]); err != nil {
		return err
	}
	for pass := 1; pass <= 2; pass++ {
		d, err := OpenWith(disk, store, Options{PoolPages: 64})
		if err != nil {
			return fmt.Errorf("recovery %d: %w", pass, err)
		}
		got := model{}
		err = d.Table("rows").Scan(nil, func(_ RID, row Row) (bool, error) {
			got[row[0].(int64)] = row[1].([]byte)
			return true, nil
		})
		if err != nil {
			return fmt.Errorf("recovery %d: scan: %w", pass, err)
		}
		if diff := diffModels(got, want); diff != "" {
			return fmt.Errorf("recovery %d: %s", pass, diff)
		}
	}
	return nil
}

func diffModels(got, want model) string {
	var keys []int64
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		g, inGot := got[k]
		w, inWant := want[k]
		switch {
		case !inWant:
			return fmt.Sprintf("row %d present, no surviving commit wrote it", k)
		case !inGot:
			return fmt.Sprintf("row %d missing", k)
		case !bytes.Equal(g, w):
			return fmt.Sprintf("row %d is %d bytes %.12q…, want %d bytes %.12q…", k, len(g), g, len(w), w)
		}
	}
	return ""
}

// TestOpenRefusesLegacyLog: a data directory whose log an older record
// format wrote does not open (and so cannot be written to with LSNs below
// its page LSNs); the error names the cause.
func TestOpenRefusesLegacyLog(t *testing.T) {
	legacy, err := os.ReadFile("../wal/testdata/legacy.log")
	if err != nil {
		t.Fatal(err)
	}
	store := wal.NewMemStore()
	if err := store.Append(legacy); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(storage.NewMemDisk(), store, Options{}); !errors.Is(err, wal.ErrFormat) {
		t.Fatalf("open over a legacy log: %v, want wal.ErrFormat", err)
	}
}

// TestCrashAtEveryLogBoundary cuts the log of a scripted heap workload at
// every record boundary the disk image allows and at every byte inside the
// last record, recovers each cut twice, and checks the table against the
// model of exactly the transactions whose commit survived the cut. Redo of
// an update applies a splice and refuses a page that does not hold its
// pre-image, so any record redone twice, skipped, or applied to the wrong
// state fails here rather than in a user's restart.
func TestCrashAtEveryLogBoundary(t *testing.T) {
	s := &crashScript{t: t, live: storage.NewMemDisk(), store: wal.NewMemStore()}
	d, err := OpenWith(s.live, s.store, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.d = d
	s.run()
	data, err := s.store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries and LSNs, read back through the log itself.
	type bound struct {
		end int
		lsn wal.LSN // of the record ending at end
	}
	replay := wal.NewMemStore()
	if err := replay.Append(data); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(replay)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []bound
	end := 0
	types := map[wal.RecordType]int{}
	ops := map[wal.PageOp]int{}
	err = log.Iterate(func(r *wal.Record) error {
		end += r.Size()
		bounds = append(bounds, bound{end, r.LSN})
		if end > s.mark {
			types[r.Type]++
			if r.Type == wal.RecUpdate || r.Type == wal.RecCLR {
				ops[r.Op]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != len(data) {
		t.Fatalf("record sizes sum to %d, the log holds %d bytes", end, len(data))
	}
	// The cuts must cover what the script promises.
	if types[wal.RecCLR] < 3 || types[wal.RecAbort] < 1 || ops[wal.OpInsert] < 2 ||
		ops[wal.OpUpdate] < 2 || ops[wal.OpDelete] < 2 {
		t.Fatalf("records past the write-back: %v, ops %v", types, ops)
	}

	var cuts, torn int
	lastLSN := wal.LSN(0)
	prevEnd := 0
	for _, b := range bounds {
		if prevEnd >= s.mark {
			if err := s.recoverAt(data, prevEnd, s.expect(lastLSN)); err != nil {
				t.Errorf("cut at byte %d (after LSN %d): %v", prevEnd, lastLSN, err)
			}
			cuts++
		}
		prevEnd, lastLSN = b.end, b.lsn
	}
	if err := s.recoverAt(data, len(data), s.expect(lastLSN)); err != nil {
		t.Errorf("whole log: %v", err)
	}
	cuts++
	// Torn inside the last record: recovery sees the log without it.
	lastStart := 0
	if len(bounds) > 1 {
		lastStart = bounds[len(bounds)-2].end
	}
	before := s.expect(bounds[len(bounds)-2].lsn)
	for cut := lastStart + 1; cut < len(data); cut++ {
		if err := s.recoverAt(data, cut, before); err != nil {
			t.Errorf("torn at byte %d of the last record: %v", cut-lastStart, err)
		}
		torn++
	}
	t.Logf("%d record boundaries from byte %d, %d torn offsets, each recovered twice", cuts, s.mark, torn)
}
