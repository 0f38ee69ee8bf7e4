package wal

import (
	"testing"

	"tendax/internal/storage"
)

func TestCheckpointBodyRoundTrip(t *testing.T) {
	b := &CheckpointBody{
		BeginLSN: 100,
		RedoLSN:  42,
		DPT: []storage.DirtyPage{
			{ID: 3, RecLSN: 42},
			{ID: 9, RecLSN: 77},
		},
		ATT: []ActiveTxn{
			{ID: 5, FirstLSN: 50},
			{ID: 6, FirstLSN: 61},
		},
	}
	got, err := DecodeCheckpointBody(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.BeginLSN != b.BeginLSN || got.RedoLSN != b.RedoLSN {
		t.Fatalf("LSNs diverged: %+v vs %+v", got, b)
	}
	if len(got.DPT) != 2 || got.DPT[1].ID != 9 || got.DPT[1].RecLSN != 77 {
		t.Fatalf("DPT diverged: %+v", got.DPT)
	}
	if len(got.ATT) != 2 || got.ATT[0].ID != 5 || got.ATT[0].FirstLSN != 50 {
		t.Fatalf("ATT diverged: %+v", got.ATT)
	}
}

func TestCheckpointBodyRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpointBody([]byte("short")); err == nil {
		t.Fatal("short body decoded")
	}
	// A body whose DPT length claims more entries than the payload holds.
	b := (&CheckpointBody{BeginLSN: 1, RedoLSN: 1}).Encode()
	b[16+7] = 0xFF // inflate the DPT count
	if _, err := DecodeCheckpointBody(b); err == nil {
		t.Fatal("inflated DPT length decoded")
	}
}

// TestTruncateBelowCutsExactPrefix: records flushed one at a time are a
// frame each, so a truncation keeps exactly the records from its LSN on.
func TestTruncateBelowCutsExactPrefix(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	var lsns []LSN
	for i := 0; i < 20; i++ {
		lsn, err := log.Append(&Record{Type: RecUpdate, TxnID: 1, Page: uint64(i), Op: OpInsert, After: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	sizeBefore := store.Len()
	cut := lsns[12]
	removed, err := log.TruncateBelow(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed <= 0 || store.Len() != sizeBefore-int(removed) {
		t.Fatalf("removed %d bytes, store %d -> %d", removed, sizeBefore, store.Len())
	}
	var kept []LSN
	if err := log.Iterate(func(r *Record) error {
		kept = append(kept, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 8 || kept[0] != cut || kept[len(kept)-1] != lsns[19] {
		t.Fatalf("kept %v, want exactly [%d..%d]", kept, cut, lsns[19])
	}
	// LSN continuity across a reopen of the truncated store.
	log2 := openLog(t, store)
	if log2.NextLSN() != lsns[19]+1 {
		t.Fatalf("NextLSN after truncated reopen = %d, want %d", log2.NextLSN(), lsns[19]+1)
	}
}

// TestTruncateBelowKeepsStraddlingFrame: a truncation cuts at a frame
// boundary, so a frame whose records straddle the truncation LSN stays
// whole, records below the LSN included, and one whose records all lie
// below it goes.
func TestTruncateBelowKeepsStraddlingFrame(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	var ends []int
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 5; i++ {
			if _, err := log.Append(&Record{Type: RecUpdate, TxnID: 1, Page: uint64(i), Op: OpInsert, After: []byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, store.Len())
	}
	// Frames hold LSNs 1-5, 6-10 and 11-15.
	for _, c := range []struct {
		below   LSN
		removed int
		first   LSN
	}{
		{5, 0, 1},
		{6, ends[0], 6},
		{8, 0, 6},
		{11, ends[1] - ends[0], 11},
	} {
		removed, err := log.TruncateBelow(c.below)
		if err != nil || removed != int64(c.removed) {
			t.Fatalf("TruncateBelow(%d) removed %d bytes (%v), want %d", c.below, removed, err, c.removed)
		}
		var kept []LSN
		if err := log.Iterate(func(r *Record) error {
			kept = append(kept, r.LSN)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(kept) != int(16-c.first) || kept[0] != c.first {
			t.Fatalf("after TruncateBelow(%d) the log holds LSNs %v, want %d to 15", c.below, kept, c.first)
		}
	}
}

func TestTruncateBelowZeroAndBeyondTail(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	lsn, err := log.Append(&Record{Type: RecBegin, TxnID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if removed, err := log.TruncateBelow(lsn); err != nil || removed != 0 {
		t.Fatalf("truncating below the first record removed %d (%v)", removed, err)
	}
	// Truncating past every durable record keeps nothing but never errors.
	if _, err := log.TruncateBelow(lsn + 100); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store kept %d bytes", store.Len())
	}
}

// TestFuzzyCheckpointTruncatesRespectingTables drives the checkpoint
// protocol directly: the truncation point must honour both the oldest dirty
// page and the oldest active transaction, and the begin/end pair must
// survive truncation. Each update is flushed on its own, a frame each.
func TestFuzzyCheckpointTruncatesRespectingTables(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	for i := 0; i < 10; i++ {
		if _, err := log.Append(&Record{Type: RecUpdate, TxnID: 2, Page: uint64(i), Op: OpInsert, After: []byte("y")}); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	dirtyAt := LSN(6)
	activeAt := LSN(4)
	res, err := log.FuzzyCheckpoint(
		func() ([]storage.DirtyPage, error) {
			return []storage.DirtyPage{{ID: 1, RecLSN: uint64(dirtyAt)}}, nil
		},
		func() []ActiveTxn { return []ActiveTxn{{ID: 2, FirstLSN: activeAt}} },
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoLSN != dirtyAt {
		t.Fatalf("redo point %d, want min recLSN %d", res.RedoLSN, dirtyAt)
	}
	if res.TruncLSN != activeAt {
		t.Fatalf("truncation point %d, want oldest active txn %d", res.TruncLSN, activeAt)
	}
	var first LSN
	var sawEnd bool
	if err := log.Iterate(func(r *Record) error {
		if first == 0 {
			first = r.LSN
		}
		if r.Type == RecCkptEnd {
			sawEnd = true
			body, err := DecodeCheckpointBody(r.After)
			if err != nil {
				return err
			}
			if body.BeginLSN != res.BeginLSN || body.RedoLSN != res.RedoLSN {
				t.Fatalf("end record body %+v vs result %+v", body, res)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != activeAt {
		t.Fatalf("retained log starts at %d, want %d", first, activeAt)
	}
	if !sawEnd {
		t.Fatal("end-checkpoint record missing after truncation")
	}
}

// TestFuzzyCheckpointKeepsLSNsMonotone: a checkpoint that truncates every
// earlier record leaves exactly its begin/end pair, and LSNs continue
// monotonically past it and past a reopen of the truncated log, so page
// LSNs stamped before the checkpoint stay comparable. Each transaction
// waits for its commit, as the engine's do, so it is a frame of its own.
func TestFuzzyCheckpointKeepsLSNsMonotone(t *testing.T) {
	store := NewMemStore()
	log := openLog(t, store)
	for i := uint64(1); i <= 10; i++ {
		if _, err := log.Append(&Record{Type: RecBegin, TxnID: i}); err != nil {
			t.Fatal(err)
		}
		lsn, err := log.Append(&Record{Type: RecCommit, TxnID: i})
		if err == nil {
			err = log.WaitFlushed(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := log.FuzzyCheckpoint(
		func() ([]storage.DirtyPage, error) { return nil, nil },
		func() []ActiveTxn { return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	var types []RecordType
	if err := log.Iterate(func(r *Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != RecCkptBegin || types[1] != RecCkptEnd {
		t.Fatalf("after checkpoint: %v, want exactly the begin/end pair", types)
	}
	lsn, err := log.Append(&Record{Type: RecBegin, TxnID: 11})
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= res.EndLSN {
		t.Fatalf("post-checkpoint LSN %d not above the end record %d", lsn, res.EndLSN)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2 := openLog(t, store)
	if next := log2.NextLSN(); next != lsn+1 {
		t.Fatalf("NextLSN after reopen = %d, want %d", next, lsn+1)
	}
}
