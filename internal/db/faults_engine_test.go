package db_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/server"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// TestPoisonedLogStopsEngine fails one fsync under a document's Apply:
// that Apply, every later one and the durability wait all return an error
// matching wal.ErrLogFailed, and the server's /metrics gauge log_failed
// turns from 0 to 1.
func TestPoisonedLogStopsEngine(t *testing.T) {
	store, failSync := db.FailSyncSwitch(wal.NewMemStore())
	database, err := db.OpenWith(storage.NewMemDisk(), store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil)
	gauge := func() int {
		rec := httptest.NewRecorder()
		srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var snap struct {
			LogFailed *int `json:"log_failed"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || snap.LogFailed == nil {
			t.Fatalf("/metrics: %v, no log_failed in %s", err, rec.Body.Bytes())
		}
		return *snap.LogFailed
	}
	d, err := eng.CreateDocument("alice", "doc")
	if err != nil {
		t.Fatal(err)
	}
	key := []core.EditOp{{Kind: core.EditInsert, Pos: -1, Text: "k"}}
	if _, err := d.Apply("alice", key); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("log_failed is %d on a healthy log", g)
	}

	failSync.Store(true) // for this one batch
	_, err = d.Apply("alice", key)
	failSync.Store(false)
	if !errors.Is(err, wal.ErrLogFailed) || !strings.Contains(err.Error(), "injected fsync fault") {
		t.Fatalf("Apply whose fsync failed: %v, want wal.ErrLogFailed wrapping the injected fault", err)
	}
	if _, err := d.Apply("alice", key); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("Apply after the failure: %v, want wal.ErrLogFailed", err)
	}
	if err := eng.WaitDurable(database.Log().NextLSN()); !errors.Is(err, wal.ErrLogFailed) {
		t.Errorf("WaitDurable after the failure: %v, want wal.ErrLogFailed", err)
	}
	if g := gauge(); g != 1 {
		t.Errorf("log_failed is %d on a poisoned log, want 1", g)
	}
}

// TestSeededSyncFailure fails the N-th fsync, N drawn from a seed, under
// four writers typing into two documents through core Apply, with a bus
// subscriber on each document. The failure is the moment the first Apply
// returns its error. The test asserts that
//   - no Apply that begins after the failure succeeds;
//   - no event is published for such an Apply, and on each document no
//     acknowledged batch's event follows a failed batch's;
//   - no WaitDurable succeeds at or past the failed batch's LSN, neither
//     during the run nor after it;
//   - a reopen on the synced log recovers exactly the acknowledged
//     batches' text, in the order the bus published it.
func TestSeededSyncFailure(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runSyncFailure(t, uint64(seed)) })
	}
}

// syncFailureApply is one Apply of runSyncFailure: its document, the text
// it appended, the ticks of the test's clock at its start and end, and
// its error.
type syncFailureApply struct {
	doc        int
	text       string
	start, end int64
	err        error
}

func runSyncFailure(t *testing.T, seed uint64) {
	const writers, batches = 4, 30
	mem := wal.NewMemStore()
	store, arm, synced := db.FailNthSync(mem)
	disk := storage.NewMemDisk()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	var docs [2]*core.Document
	for i := range docs {
		if docs[i], err = eng.CreateDocument("alice", fmt.Sprint("doc", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := docs[i].Apply("alice", []core.EditOp{{Kind: core.EditInsert, Pos: -1, Text: "start;"}}); err != nil {
			t.Fatal(err)
		}
	}
	var events [2][]awareness.Event
	var subs [2]*awareness.Subscription
	var readers sync.WaitGroup
	for i, d := range docs {
		subs[i] = eng.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for e, ok := subs[i].Next(); ok; e, ok = subs[i].Next() {
				events[i] = append(events[i], e)
			}
		}(i)
	}

	// Each writer's batches need a sync of their own or one shared with
	// at most three others, so the run makes at least batches syncs.
	n := 1 + util.NewRand(seed).Intn(batches-6)
	arm(int64(n))
	var clock atomic.Int64
	applies := make([][]syncFailureApply, writers)
	type wait struct {
		lsn wal.LSN
		err error
	}
	var waits []wait
	stop := make(chan struct{})
	var waiter, writing sync.WaitGroup
	waiter.Add(1)
	go func() { // waits on each newest LSN until a wait fails
		defer waiter.Done()
		var last wal.LSN
		for {
			select {
			case <-stop:
				return
			default:
			}
			lsn := database.Log().NextLSN() - 1
			if lsn == last {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			last = lsn
			err := eng.WaitDurable(lsn)
			waits = append(waits, wait{lsn, err})
			if err != nil {
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			user := fmt.Sprint("writer", w)
			for b := 0; b < batches; b++ {
				a := syncFailureApply{doc: w % 2, text: fmt.Sprintf("<%d.%d>", w, b), start: clock.Add(1)}
				_, a.err = docs[a.doc].Apply(user, []core.EditOp{{Kind: core.EditInsert, Pos: -1, Text: a.text}})
				a.end = clock.Add(1)
				applies[w] = append(applies[w], a)
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	waiter.Wait()
	for _, s := range subs {
		s.Close()
	}
	readers.Wait()

	byText := map[string]syncFailureApply{}
	failedAt := int64(-1)
	for _, as := range applies {
		for _, a := range as {
			byText[a.text] = a
			if a.err == nil {
				continue
			}
			if !errors.Is(a.err, wal.ErrLogFailed) {
				t.Fatalf("Apply of %s: %v, want wal.ErrLogFailed", a.text, a.err)
			}
			if failedAt < 0 || a.end < failedAt {
				failedAt = a.end
			}
		}
	}
	if failedAt < 0 {
		t.Fatalf("sync %d never failed: every Apply succeeded", n)
	}
	for _, as := range applies {
		for _, a := range as {
			if a.start > failedAt && a.err == nil {
				t.Errorf("Apply of %s began after the failure and succeeded", a.text)
			}
		}
	}

	var want [2]string
	for i, evs := range events {
		var failed string
		want[i] = "start;"
		for _, e := range evs {
			a, ok := byText[e.Text]
			if !ok {
				t.Fatalf("doc %d: event %d (%s %q) is no writer's", i, e.Seq, e.Kind, e.Text)
			}
			if a.start > failedAt {
				t.Errorf("doc %d: event %d publishes %s, whose Apply began after the failure", i, e.Seq, a.text)
			}
			switch {
			case a.err != nil && failed == "":
				failed = a.text
			case a.err == nil && failed != "":
				t.Errorf("doc %d: event %d publishes acknowledged %s after failed %s", i, e.Seq, a.text, failed)
			case a.err == nil:
				want[i] += a.text
			}
		}
	}
	for text, a := range byText {
		if a.err == nil && !strings.Contains(want[a.doc], text) {
			t.Errorf("acknowledged %s was never published", text)
		}
	}

	flushed := database.Log().FlushedLSN()
	for _, w := range waits {
		if w.err == nil && w.lsn > flushed {
			t.Errorf("WaitDurable(%d) succeeded during the run, past the durable horizon %d", w.lsn, flushed)
		}
	}
	if err := eng.WaitDurable(flushed); err != nil {
		t.Errorf("WaitDurable(%d) on the durable horizon: %v", flushed, err)
	}
	for lsn := flushed + 1; lsn < database.Log().NextLSN(); lsn++ {
		if err := eng.WaitDurable(lsn); !errors.Is(err, wal.ErrLogFailed) {
			t.Errorf("WaitDurable(%d) after the failure: %v, want wal.ErrLogFailed", lsn, err)
		}
	}

	// Both page images must recover: the one a crash leaves, and the one
	// Close leaves after writing back every page the WAL barrier allows.
	crashed := disk.SnapshotHead(math.MaxInt)
	database.Close() // returns the failure again
	data, _ := mem.ReadAll()
	for _, img := range []struct {
		name string
		disk *storage.MemDisk
	}{{"crash", crashed}, {"close", disk.SnapshotHead(math.MaxInt)}} {
		kept := wal.NewMemStore()
		if err := kept.Append(data[:synced()]); err != nil {
			t.Fatal(err)
		}
		database2, err := db.OpenWith(img.disk, kept, db.Options{})
		if err != nil {
			t.Fatalf("reopen on the %s image: %v", img.name, err)
		}
		eng2, err := core.NewEngine(database2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			d2, err := eng2.OpenDocument(d.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got := d2.Text(); got != want[i] {
				t.Errorf("doc %d after a reopen on the %s image:\n got  %q\n want %q (the acknowledged batches)", i, img.name, got, want[i])
			}
		}
		database2.Close()
	}
}
