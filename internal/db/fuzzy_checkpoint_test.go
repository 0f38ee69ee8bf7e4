package db

import (
	"sync"
	"testing"
	"time"

	"tendax/internal/storage"
	"tendax/internal/wal"
)

// crashImage freezes the database's stable storage at this instant — pages
// and log both — the way an OS crash would. tearLog cuts the given number
// of bytes off the log tail, simulating a record torn mid-write.
func crashImage(t *testing.T, disk *storage.MemDisk, store *wal.MemStore, tearLog int) (*storage.MemDisk, *wal.MemStore) {
	t.Helper()
	logBytes, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	crashStore := wal.NewMemStore()
	if err := crashStore.Append(logBytes); err != nil {
		t.Fatal(err)
	}
	if tearLog > 0 {
		crashStore.Truncate(crashStore.Len() - tearLog)
	}
	return disk.Snapshot(), crashStore
}

// TestFuzzyCheckpointCrashRecoveryBoundsLogAndRedo checkpoints while
// committing batch after batch: the log must stay flat instead of growing
// with history, recovery after a crash must start from the checkpoint
// (skipping the retained pre-checkpoint records), and every committed row
// must survive.
func TestFuzzyCheckpointCrashRecoveryBoundsLogAndRedo(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	maxLog := 0
	const batches, perBatch = 12, 25
	for batch := 0; batch < batches; batch++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perBatch; i++ {
			if _, err := tbl.Insert(tx, sampleRow(int64(batch*perBatch+i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		res, err := d.FuzzyCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if res.EndLSN <= res.BeginLSN {
			t.Fatalf("checkpoint pair out of order: %+v", res)
		}
		if store.Len() > maxLog {
			maxLog = store.Len()
		}
	}
	// Without truncation the log would hold all batches; with it, roughly
	// one batch plus the checkpoint pair.
	logBytes, _ := store.ReadAll()
	if maxLog > 4*len(logBytes)+8192 {
		t.Fatalf("log peaked at %d bytes vs %d now — truncation not keeping up", maxLog, len(logBytes))
	}

	crashDisk, crashStore := crashImage(t, disk, store, 0)
	d2, err := OpenWith(crashDisk, crashStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Recovery.CheckpointLSN == 0 {
		t.Fatal("recovery found no complete checkpoint")
	}
	if d2.Recovery.RedoLSN == 0 {
		t.Fatal("recovery did not adopt the checkpoint redo point")
	}
	tbl2 := d2.Table("t")
	if got := tbl2.Count(); got != batches*perBatch {
		t.Fatalf("rows after checkpointed crash = %d, want %d", got, batches*perBatch)
	}
	row, _, err := tbl2.GetByPK(nil, 42)
	if err != nil || row[1].(string) != "doc-42" {
		t.Fatalf("row 42 = %v, %v", row, err)
	}

	// The last checkpoint ran with nothing in flight: it left only its own
	// begin/end pair, and recovery analyses exactly those two records.
	var types []wal.RecordType
	if err := d.Log().Iterate(func(r *wal.Record) error {
		types = append(types, r.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != wal.RecCkptBegin || types[1] != wal.RecCkptEnd {
		t.Fatalf("log after a quiescent checkpoint holds %v, want only the checkpoint pair", types)
	}
	if got := d2.Recovery.Analyzed; got != 2 {
		t.Fatalf("recovery analysed %d records, want the 2 of the checkpoint pair", got)
	}
}

// TestTornEndCheckpointFallsBack crashes mid-checkpoint, twice: once with
// the end record never written and once with it torn mid-record. Both times
// recovery must treat the pair as absent, fall back to the previous
// complete checkpoint, and lose nothing.
func TestTornEndCheckpointFallsBack(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 30; i++ {
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	complete, err := d.FuzzyCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(31); i <= 40; i++ {
		if _, err := tbl.Insert(tx2, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash A: a second checkpoint got its begin record durable but died
	// before the end record existed at all.
	if _, err := d.Log().Append(&wal.Record{Type: wal.RecCkptBegin}); err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	verify := func(label string, tear int) {
		crashDisk, crashStore := crashImage(t, disk, store, tear)
		d2, err := OpenWith(crashDisk, crashStore, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if d2.Recovery.CheckpointLSN != complete.EndLSN {
			t.Fatalf("%s: recovery used checkpoint at %d, want the previous complete one at %d",
				label, d2.Recovery.CheckpointLSN, complete.EndLSN)
		}
		if got := d2.Table("t").Count(); got != 40 {
			t.Fatalf("%s: rows = %d, want 40", label, got)
		}
	}
	verify("begin-without-end", 0)

	// Crash B: the end record of a third checkpoint reached the log but was
	// torn mid-record.
	body := &wal.CheckpointBody{BeginLSN: d.Log().NextLSN(), RedoLSN: d.Log().NextLSN()}
	if _, err := d.Log().Append(&wal.Record{Type: wal.RecCkptBegin}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Log().Append(&wal.Record{Type: wal.RecCkptEnd, After: body.Encode()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	verify("torn-end-record", 3)
}

// TestTruncationKeepsLoserUndoChain holds one transaction open across many
// checkpoints: truncation must stall at its begin record so that, after a
// crash, its uncommitted update can still be rolled back from the log.
func TestTruncationKeepsLoserUndoChain(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	setup, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := tbl.Insert(setup, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// The loser: uncommitted update of row 1, alive across every checkpoint.
	loser, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mutated := sampleRow(1)
	mutated[1] = "uncommitted-garbage"
	if err := tbl.UpdateByPK(loser, 1, mutated); err != nil {
		t.Fatal(err)
	}

	var lastRes *wal.CheckpointResult
	next := int64(11)
	for ckpt := 0; ckpt < 5; ckpt++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := tbl.Insert(tx, sampleRow(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if lastRes, err = d.FuzzyCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if lastRes.TruncLSN > loser.FirstLSN() {
		t.Fatalf("truncation point %d passed the active transaction's begin record %d",
			lastRes.TruncLSN, loser.FirstLSN())
	}

	crashDisk, crashStore := crashImage(t, disk, store, 0)
	d2, err := OpenWith(crashDisk, crashStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Recovery.Losers != 1 || d2.Recovery.Undone == 0 {
		t.Fatalf("recovery stats %+v: want exactly 1 loser with undone work", d2.Recovery)
	}
	row, _, err := d2.Table("t").GetByPK(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].(string) != "doc-1" {
		t.Fatalf("loser's update survived the crash: row 1 = %v", row)
	}
	if got := d2.Table("t").Count(); got != int(next-1) {
		t.Fatalf("committed rows = %d, want %d", got, next-1)
	}
}

// TestConcurrentCheckpointCrashRecovery races committing writers against a
// checkpointer loop — the fuzzy capture must never lose a committed row or
// truncate a record recovery still needs — then crashes and reopens.
func TestConcurrentCheckpointCrashRecovery(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	d, err := OpenWith(disk, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 40
	var writerWG sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := tbl.Insert(tx, sampleRow(int64(w*perWriter+i+1))); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.FuzzyCheckpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	<-ckptDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	crashDisk, crashStore := crashImage(t, disk, store, 0)
	d2, err := OpenWith(crashDisk, crashStore, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Table("t").Count(); got != writers*perWriter {
		t.Fatalf("rows after concurrent-checkpoint crash = %d, want %d", got, writers*perWriter)
	}
}

// TestBackgroundCheckpointerTriggers opts a file-backed database into the
// background checkpointer and verifies it fires on both triggers, truncates
// the log, and leaves the data intact across a clean reopen.
func TestBackgroundCheckpointerTriggers(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{
		Dir:                dir,
		CheckpointInterval: 20 * time.Millisecond,
		CheckpointLogBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert(tx, sampleRow(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := d.CheckpointCount()
		if err != nil {
			t.Fatalf("background checkpoint failed: %v", err)
		}
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Table("t").Count(); got != 50 {
		t.Fatalf("rows after checkpointed reopen = %d, want 50", got)
	}
}
