package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"

	"tendax/internal/storage"
)

// openLog opens a log over store and closes it when the test ends, so its
// flusher does not outlive the test. A test simulates a crash by opening a
// second log over the same store.
func openLog(t *testing.T, store Store) *Log {
	t.Helper()
	log, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// roundTrip decodes r's encoding, a frame of its own.
func roundTrip(t *testing.T, r *Record) *Record {
	t.Helper()
	recs, _, err := walkAll(appendFrame(nil, r))
	if err != nil || len(recs) != 1 {
		t.Fatalf("decode %+v: %d records, %v", r, len(recs), err)
	}
	return &recs[0]
}

func sameRecord(a, b *Record) bool {
	return a.LSN == b.LSN && a.Type == b.Type && a.TxnID == b.TxnID &&
		a.PrevLSN == b.PrevLSN && a.Page == b.Page && a.Slot == b.Slot &&
		a.Op == b.Op && a.Owner == b.Owner && a.Off == b.Off &&
		bytes.Equal(a.Before, b.Before) && bytes.Equal(a.After, b.After) &&
		a.UndoNext == b.UndoNext
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := &Record{
		LSN:      42,
		Type:     RecCLR,
		TxnID:    7,
		PrevLSN:  41,
		Page:     3,
		Slot:     9,
		Op:       OpUpdate,
		Owner:    1 << 40,
		Off:      300,
		Before:   []byte("before image"),
		After:    []byte("after image"),
		UndoNext: 40,
	}
	if got := roundTrip(t, r); !sameRecord(got, r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

// TestRecordRoundTripProperty: random update records survive the codec, and
// the splice an update logs turns before into after — and its swap, the
// CLR's, turns after back into before.
func TestRecordRoundTripProperty(t *testing.T) {
	f := func(lsn, txn, page uint64, slot uint32, prev uint8, before, after []byte) bool {
		lsn = lsn>>1 + 256 // room below for PrevLSN and UndoNext
		off, was, now := Splice(before, after)
		r := &Record{LSN: LSN(lsn), Type: RecUpdate, TxnID: txn, PrevLSN: LSN(lsn - uint64(prev)),
			Page: page, Slot: slot, Op: OpUpdate, Off: off, Before: was, After: now}
		if prev == 0 {
			r.PrevLSN = 0
		}
		got := roundTrip(t, r)
		if !sameRecord(got, r) {
			return false
		}
		fwd, err := applySplice(before, got.Off, got.Before, got.After)
		if err != nil || !bytes.Equal(fwd, after) {
			return false
		}
		back, err := applySplice(after, got.Off, got.After, got.Before)
		return err == nil && bytes.Equal(back, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceEdges covers the trims quick.Check rarely hits: equal records,
// a pure insertion or deletion, a repeated byte at the cut, whole-record
// replacement, and the pre-image check on a mismatched or short record.
func TestSpliceEdges(t *testing.T) {
	for _, c := range []struct{ a, b string }{
		{"", ""}, {"same", "same"}, {"", "abc"}, {"abc", ""},
		{"aXa", "aa"}, {"aa", "aXa"}, {"aaaa", "aaaaaa"},
		{"head-mid-tail", "head-MIDDLE-tail"}, {"abc", "xyz"},
	} {
		off, was, now := Splice([]byte(c.a), []byte(c.b))
		if len(was) > 0 && len(now) > 0 && (was[0] == now[0] || was[len(was)-1] == now[len(now)-1]) {
			t.Errorf("%q→%q: splice %d %q→%q not trimmed", c.a, c.b, off, was, now)
		}
		got, err := applySplice([]byte(c.a), off, was, now)
		if err != nil || string(got) != c.b {
			t.Errorf("%q→%q: applying %d %q→%q gave %q, %v", c.a, c.b, off, was, now, got, err)
		}
	}
	if _, err := applySplice([]byte("abcdef"), 2, []byte("cX"), []byte("y")); !errors.Is(err, ErrPreImage) {
		t.Errorf("mismatched pre-image: %v, want ErrPreImage", err)
	}
	if _, err := applySplice([]byte("abc"), 2, []byte("cde"), nil); !errors.Is(err, ErrPreImage) {
		t.Errorf("pre-image past the record's end: %v, want ErrPreImage", err)
	}
}

func TestLogAppendFlushIterate(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	for i := 0; i < 10; i++ {
		if _, err := log.Append(&Record{Type: RecBegin, TxnID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	if err := log.Iterate(func(r *Record) error {
		seen = append(seen, r.TxnID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("iterated %d records, want 10", len(seen))
	}
	for i, txn := range seen {
		if txn != uint64(i) {
			t.Fatalf("record %d has txn %d", i, txn)
		}
	}
}

func TestLogLSNsMonotone(t *testing.T) {
	log := openLog(t, NewMemStore())
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn, err := log.Append(&Record{Type: RecBegin, TxnID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("LSN %d not greater than previous %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestLogReopenContinuesLSNs(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	last, _ := log.Append(&Record{Type: RecBegin, TxnID: 1})
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	log2 := openLog(t, store)
	next, _ := log2.Append(&Record{Type: RecCommit, TxnID: 1})
	if next <= last {
		t.Fatalf("reopened log reused LSN %d (last was %d)", next, last)
	}
}

func TestLogTornTailIgnored(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	log.Append(&Record{Type: RecBegin, TxnID: 1})
	log.Append(&Record{Type: RecCommit, TxnID: 1})
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := store.Len()
	log.Append(&Record{Type: RecBegin, TxnID: 2})
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	store.TruncateTail(int64(whole + 3)) // tear the last record

	log2 := openLog(t, store)
	count := 0
	if err := log2.Iterate(func(r *Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("iterated %d records after torn tail, want 2", count)
	}
}

// TestTornTailCutAtOpen pins that opening a log cuts a torn tail off its
// store, for both stores: a commit flushed after reopening over a frame
// torn 3 bytes in is still there at the next open, after the 2 records
// before the tear.
func TestTornTailCutAtOpen(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) Store{
		"mem": func(*testing.T) Store { return NewMemStore() },
		"file": func(t *testing.T) Store {
			s, err := OpenFileStore(filepath.Join(t.TempDir(), "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			store := open(t)
			log := openLog(t, store)
			log.Append(&Record{Type: RecBegin, TxnID: 1})
			log.Append(&Record{Type: RecCommit, TxnID: 1})
			if err := log.Flush(); err != nil {
				t.Fatal(err)
			}
			whole, err := store.Size()
			if err != nil {
				t.Fatal(err)
			}
			log.Append(&Record{Type: RecBegin, TxnID: 2})
			if err := log.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := store.TruncateTail(whole + 3); err != nil { // tear the last frame
				t.Fatal(err)
			}

			log2 := openLog(t, store)
			if size, err := store.Size(); err != nil || size != whole {
				t.Fatalf("the store holds %d bytes after open (%v), want the %d of its whole frames", size, err, whole)
			}
			lsn, err := log2.Append(&Record{Type: RecCommit, TxnID: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := log2.WaitFlushed(lsn); err != nil {
				t.Fatal(err)
			}

			count := 0
			if err := openLog(t, store).Iterate(func(*Record) error { count++; return nil }); err != nil {
				t.Fatal(err)
			}
			if count != 3 {
				t.Fatalf("iterated %d records after reopening, want 3: the commit flushed after the torn tail is lost", count)
			}
		})
	}
}

// simTxn simulates the normal-operation protocol: log first, then apply to
// the page, stamping the page LSN.
type simTxn struct {
	t     *testing.T
	log   *Log
	pool  *storage.BufferPool
	id    uint64
	prev  LSN
	pages map[uint64]bool
}

func beginSim(t *testing.T, log *Log, pool *storage.BufferPool, id uint64) *simTxn {
	tx := &simTxn{t: t, log: log, pool: pool, id: id, pages: map[uint64]bool{}}
	lsn, err := log.Append(&Record{Type: RecBegin, TxnID: id})
	if err != nil {
		t.Fatal(err)
	}
	tx.prev = lsn
	return tx
}

func (tx *simTxn) insert(page uint64, rec []byte) uint32 {
	pg, err := tx.pool.Fetch(storage.PageID(page))
	if err != nil {
		tx.t.Fatal(err)
	}
	defer tx.pool.Unpin(storage.PageID(page), true)
	sp := storage.Slotted(pg)
	slot := sp.NumSlots()
	lsn, err := tx.log.Append(&Record{
		Type: RecUpdate, TxnID: tx.id, PrevLSN: tx.prev,
		Page: page, Slot: uint32(slot), Op: OpInsert, After: rec,
	})
	if err != nil {
		tx.t.Fatal(err)
	}
	tx.prev = lsn
	if err := sp.InsertAt(slot, rec); err != nil {
		tx.t.Fatal(err)
	}
	pg.SetLSN(uint64(lsn))
	return uint32(slot)
}

func (tx *simTxn) commit() {
	if _, err := tx.log.Append(&Record{Type: RecCommit, TxnID: tx.id, PrevLSN: tx.prev}); err != nil {
		tx.t.Fatal(err)
	}
	if err := tx.log.Flush(); err != nil {
		tx.t.Fatal(err)
	}
}

func newHeapPage(t *testing.T, pool *storage.BufferPool) uint64 {
	pg, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	storage.InitSlotted(pg)
	id := pg.ID()
	pool.Unpin(id, true)
	return uint64(id)
}

func TestRecoveryCommittedSurvivesUncommittedRollsBack(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log := openLog(t, store)
	page := newHeapPage(t, pool)

	committed := beginSim(t, log, pool, 1)
	cSlot := committed.insert(page, []byte("committed row"))
	committed.commit()

	loser := beginSim(t, log, pool, 2)
	lSlot := loser.insert(page, []byte("loser row"))
	_ = lSlot
	if err := log.Flush(); err != nil { // updates durable, commit never written
		t.Fatal(err)
	}
	// Crash: throw away the buffer pool without flushing pages, reopen log.
	pool2 := storage.NewBufferPool(disk, 16)
	log2 := openLog(t, store)
	stats, err := Recover(log2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Winners != 1 || stats.Losers != 1 {
		t.Fatalf("winners=%d losers=%d, want 1/1", stats.Winners, stats.Losers)
	}

	pg, err := pool2.Fetch(storage.PageID(page))
	if err != nil {
		t.Fatal(err)
	}
	sp := storage.Slotted(pg)
	got, err := sp.Get(int(cSlot))
	if err != nil || string(got) != "committed row" {
		t.Fatalf("committed row lost: %q, %v", got, err)
	}
	if _, err := sp.Get(int(lSlot)); err == nil {
		t.Fatal("uncommitted row survived recovery")
	}
	pool2.Unpin(storage.PageID(page), false)
}

func TestRecoveryIdempotent(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log := openLog(t, store)
	page := newHeapPage(t, pool)

	tx := beginSim(t, log, pool, 1)
	slot := tx.insert(page, []byte("row"))
	tx.commit()

	pool2 := storage.NewBufferPool(disk, 16)
	log2 := openLog(t, store)
	if _, err := Recover(log2, pool2); err != nil {
		t.Fatal(err)
	}
	// Crash immediately after recovery; recover again.
	pool3 := storage.NewBufferPool(disk, 16)
	log3 := openLog(t, store)
	if _, err := Recover(log3, pool3); err != nil {
		t.Fatal(err)
	}
	pg, err := pool3.Fetch(storage.PageID(page))
	if err != nil {
		t.Fatal(err)
	}
	sp := storage.Slotted(pg)
	got, err := sp.Get(int(slot))
	if err != nil || string(got) != "row" {
		t.Fatalf("row lost after double recovery: %q, %v", got, err)
	}
	n := 0
	for i := 0; i < sp.NumSlots(); i++ {
		if _, err := sp.Get(i); err == nil {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d live rows after double recovery, want 1 (no duplicates)", n)
	}
	pool3.Unpin(storage.PageID(page), false)
}

func TestRecoveryUpdateAndDelete(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log := openLog(t, store)
	page := newHeapPage(t, pool)

	setup := beginSim(t, log, pool, 1)
	slotA := setup.insert(page, []byte("original A"))
	slotB := setup.insert(page, []byte("original B"))
	setup.commit()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Loser updates A and deletes B, then we crash.
	loser := beginSim(t, log, pool, 2)
	pg, _ := pool.Fetch(storage.PageID(page))
	sp := storage.Slotted(pg)
	lsn, _ := log.Append(&Record{Type: RecUpdate, TxnID: 2, PrevLSN: loser.prev,
		Page: page, Slot: slotA, Op: OpUpdate,
		Before: []byte("original A"), After: []byte("mutated A")})
	loser.prev = lsn
	sp.Update(int(slotA), []byte("mutated A"))
	pg.SetLSN(uint64(lsn))
	lsn, _ = log.Append(&Record{Type: RecUpdate, TxnID: 2, PrevLSN: loser.prev,
		Page: page, Slot: slotB, Op: OpDelete, Before: []byte("original B")})
	loser.prev = lsn
	sp.Delete(int(slotB))
	pg.SetLSN(uint64(lsn))
	pool.Unpin(storage.PageID(page), true)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil { // dirty pages even hit disk
		t.Fatal(err)
	}

	pool2 := storage.NewBufferPool(disk, 16)
	log2 := openLog(t, store)
	if _, err := Recover(log2, pool2); err != nil {
		t.Fatal(err)
	}
	pg2, _ := pool2.Fetch(storage.PageID(page))
	sp2 := storage.Slotted(pg2)
	a, err := sp2.Get(int(slotA))
	if err != nil || string(a) != "original A" {
		t.Fatalf("A after rollback: %q, %v", a, err)
	}
	b, err := sp2.Get(int(slotB))
	if err != nil || string(b) != "original B" {
		t.Fatalf("B after rollback: %q, %v", b, err)
	}
	pool2.Unpin(storage.PageID(page), false)
}

func TestRecoveryTornCommitMeansLoser(t *testing.T) {
	disk := storage.NewMemDisk()
	pool := storage.NewBufferPool(disk, 16)
	store := NewMemStore()
	log := openLog(t, store)
	page := newHeapPage(t, pool)

	tx := beginSim(t, log, pool, 1)
	slot := tx.insert(page, []byte("almost committed"))
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	preCommit := store.Len()
	tx.commit()
	store.TruncateTail(int64(preCommit + 2)) // commit record torn

	pool2 := storage.NewBufferPool(disk, 16)
	log2 := openLog(t, store)
	stats, err := Recover(log2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Losers != 1 {
		t.Fatalf("losers = %d, want 1 (torn commit)", stats.Losers)
	}
	pg, _ := pool2.Fetch(storage.PageID(page))
	if _, err := storage.Slotted(pg).Get(int(slot)); err == nil {
		t.Fatal("row with torn commit record survived")
	}
	pool2.Unpin(storage.PageID(page), false)
}
