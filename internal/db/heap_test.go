package db

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// TestCompensateLogsUnderPageLatch pins the rule every heap mutation
// follows: its log record is appended under the page latch. A rollback that
// appended its CLR first and latched second let another writer log and stamp
// the page in between; the CLR's lower LSN then moved the page LSN
// backwards, so a checkpoint's dirty page table or a redo pass could miss
// the CLR. The test holds the latch while the rollback runs into it, logs
// and stamps a record of its own, and lets go.
func TestCompensateLogsUnderPageLatch(t *testing.T) {
	d, err := OpenWith(storage.NewMemDisk(), wal.NewMemStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("rows", Schema{{Name: "id", Type: TInt}, {Name: "body", Type: TBytes}})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tbl.Insert(tx, Row{int64(1), []byte("committed")})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loser, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(loser, rid, Row{int64(1), []byte("rolled back")}); err != nil {
		t.Fatal(err)
	}

	pool := d.Pool()
	pg, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(rid.Page, false)
	fetches, _ := pool.Stats()
	pg.Lock()
	aborted := make(chan error, 1)
	go func() { aborted <- loser.Abort() }()
	// The rollback fetches the page, then waits for the latch; whatever it
	// logs before that is logged by now.
	for n, _ := pool.Stats(); n == fetches; n, _ = pool.Stats() {
		runtime.Gosched()
	}
	mine, err := d.Log().Append(&wal.Record{
		Type: wal.RecUpdate, TxnID: 1 << 40, Page: uint64(rid.Page), Slot: uint32(rid.Slot),
		Op: wal.OpUpdate, Owner: tbl.ID(), // an empty splice
	})
	if err != nil {
		t.Fatal(err)
	}
	pg.SetLSN(uint64(mine))
	pg.Unlock()
	if err := <-aborted; err != nil {
		t.Fatal(err)
	}

	var highest wal.LSN
	if err := d.Log().Iterate(func(r *wal.Record) error {
		if r.Page == uint64(rid.Page) && (r.Type == wal.RecUpdate || r.Type == wal.RecCLR) && r.LSN > highest {
			highest = r.LSN
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pg.RLock()
	got := wal.LSN(pg.LSN())
	pg.RUnlock()
	if got != highest {
		t.Fatalf("page LSN %d after the rollback, but LSN %d is the newest record logged for the page (mine: %d)", got, highest, mine)
	}
	row, err := tbl.Get(nil, rid)
	if err != nil || string(row[1].([]byte)) != "committed" {
		t.Fatalf("row after rollback: %v, %v", row, err)
	}
}

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
				rids, err := tbl.insertBatch(tx, rows)
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
	if err := d.log.Flush(); err != nil {
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

// TestHeapPlacementIsDeterministic feeds the same inserts, grown updates
// (some relocate their row) and deletes to two fresh tables, 20 times
// over, and checks that every row lands at the same RID in both: where a
// row goes must not depend on map iteration order.
func TestHeapPlacementIsDeterministic(t *testing.T) {
	schema := Schema{{Name: "id", Type: TInt}, {Name: "body", Type: TBytes}}
	run := func() []RID {
		d, err := OpenWith(storage.NewMemDisk(), wal.NewMemStore(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		tbl, err := d.CreateTable("rows", schema)
		if err != nil {
			t.Fatal(err)
		}
		var rids []RID
		rng := util.NewRand(48)
		live := map[int64]int{}
		for step := 0; step < 600; step++ {
			tx, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			pk := int64(rng.Intn(150))
			size, ok := live[pk]
			switch {
			case !ok:
				size = 40 + rng.Intn(200)
				err = tbl.InsertRecords(tx, mustEncode(t, schema, Row{pk, make([]byte, size)}))
			case rng.Intn(3) == 0:
				err = tbl.DeleteByPK(tx, pk)
				size = 0
			default:
				size += rng.Intn(300)
				if size > 1500 {
					size = 40
				}
				err = tbl.UpdateByPK(tx, pk, Row{pk, make([]byte, size)})
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if size == 0 {
				delete(live, pk)
				continue
			}
			live[pk] = size
			_, rid, err := tbl.GetByPK(nil, pk)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		return rids
	}
	for i := 0; i < 20; i++ {
		a, b := run(), run()
		if !slices.Equal(a, b) {
			t.Fatalf("round %d: the same edits placed rows differently:\n%v\n%v", i, a, b)
		}
	}
}

// mustEncode encodes row as a row of schema.
func mustEncode(t *testing.T, schema Schema, row Row) []byte {
	t.Helper()
	rec, err := EncodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
