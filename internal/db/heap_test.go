package db

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

// TestConcurrentUpdateAndInsertBatchNeverPageFull races growing updates
// against batch inserts on one heap. Update publishes the page's free space
// after it has dropped the latch, so the figure can overwrite the fresher one
// of an InsertBatch that filled the page in between; an insert that trusted
// the estimate then logged a record the page refused ("storage: page full",
// and a logged insert that was never applied). No transaction here may fail,
// and a crash after the race must recover exactly the committed rows.
func TestConcurrentUpdateAndInsertBatchNeverPageFull(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := Schema{{Name: "id", Type: TInt}, {Name: "body", Type: TBytes}}
	tbl, err := d.CreateTable("chars", schema)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds, batch = 4, 60, 24
	body := func(id int64, n int) []byte { return bytes.Repeat([]byte{byte(id)}, n) }
	var mu sync.Mutex
	want := map[int64]int{} // committed rows: id → body length
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(what string, err error) { errs <- fmt.Errorf("worker %d: %s: %w", w, what, err) }
			for r := 0; r < rounds; r++ {
				// One transaction inserts a batch of rows of mixed sizes on
				// the heap's tail pages...
				rows := make([]Row, batch)
				for i := range rows {
					id := int64(w)<<32 | int64(r*batch+i)
					rows[i] = Row{id, body(id, 20+(i*37+r)%180)}
				}
				tx, err := d.Begin()
				if err != nil {
					fail("begin", err)
					return
				}
				rids, err := tbl.InsertBatch(tx, rows)
				if err != nil {
					tx.Abort()
					fail("insert batch", err)
					return
				}
				if err := tx.Commit(); err != nil {
					fail("commit", err)
					return
				}
				// ...and the next grows some of them in place, on the very
				// pages the other workers are inserting into.
				tx, err = d.Begin()
				if err != nil {
					fail("begin", err)
					return
				}
				for i := 0; i < batch; i += 3 {
					id := rows[i][0].(int64)
					rows[i] = Row{id, body(id, len(rows[i][1].([]byte))+40)}
					if err := tbl.Update(tx, rids[i], rows[i]); err != nil {
						tx.Abort()
						fail("update", err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					fail("commit", err)
					return
				}
				mu.Lock()
				for _, row := range rows {
					want[row[0].(int64)] = len(row[1].([]byte))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Crash: reopen over the same disk and log without closing. Redo repeats
	// the log, so a record in it that was never applied would show here.
	if err := d.TxnManager().Log().Flush(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatalf("recovery after the race: %v", err)
	}
	got := map[int64]int{}
	err = d2.Table("chars").Scan(nil, func(_ RID, row Row) (bool, error) {
		id, b := row[0].(int64), row[1].([]byte)
		if !bytes.Equal(b, body(id, len(b))) {
			return false, fmt.Errorf("row %d recovered with a foreign body", id)
		}
		got[id] = len(b)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d rows, committed %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Errorf("row %d recovered with %d body bytes, committed %d", id, got[id], n)
		}
	}
}
