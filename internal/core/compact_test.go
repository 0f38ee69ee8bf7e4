package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/texttree"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// compactFixture builds a document with interleaved inserts and deletes on
// a fake clock and records every read a compaction pass must preserve.
type compactFixture struct {
	e     *Engine
	doc   *Document
	clock *util.FakeClock

	instants []time.Time // sampled instants spanning the whole history
	texts    []string    // TextAt reference at each instant
	version  Version
	verText  string
}

func buildCompactFixture(t *testing.T, database *db.Database, chunks int) *compactFixture {
	t.Helper()
	clock := util.NewFakeClock(time.Unix(3_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.CreateDocument("alice", "compact-me")
	if err != nil {
		t.Fatal(err)
	}
	f := &compactFixture{e: e, doc: doc, clock: clock}
	rng := rand.New(rand.NewSource(71))
	users := []string{"alice", "bob"}
	for i := 0; i < chunks; i++ {
		user := users[i%2]
		if _, err := doc.AppendText(user, fmt.Sprintf("[chunk-%02d-%s]", i, strings.Repeat("x", rng.Intn(8)))); err != nil {
			t.Fatal(err)
		}
		if i == chunks/2 {
			if f.version, err = doc.CreateVersion("alice", "midpoint"); err != nil {
				t.Fatal(err)
			}
		}
		if doc.Len() > 8 && rng.Intn(2) == 0 {
			pos := rng.Intn(doc.Len() - 4)
			if _, err := doc.DeleteRange(user, pos, 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
		f.instants = append(f.instants, clock.Peek())
	}
	for _, at := range f.instants {
		f.texts = append(f.texts, doc.TextAt(at))
	}
	if f.verText, err = doc.VersionText(f.version.ID); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *compactFixture) checkReads(t *testing.T, label string, d *Document) {
	t.Helper()
	for i, at := range f.instants {
		if got := d.TextAt(at); got != f.texts[i] {
			t.Fatalf("%s: TextAt instant %d diverged:\n got %q\nwant %q", label, i, got, f.texts[i])
		}
	}
	vt, err := d.VersionText(f.version.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vt != f.verText {
		t.Fatalf("%s: VersionText diverged", label)
	}
	hunks, err := d.DiffVersions(f.version.ID, util.NilID)
	if err != nil {
		t.Fatal(err)
	}
	if FormatDiff(DiffTexts(f.verText, d.Text())) != FormatDiff(hunks) {
		t.Fatalf("%s: DiffVersions diverged from reference diff", label)
	}
}

// TestCompactPreservesEveryRead archives the cold tombstones of a mixed
// history and verifies Text, TextAt at every sampled instant, VersionText,
// DiffVersions and Authors are byte-for-byte identical — then reopens the
// store from disk and checks it all again (the archive load path).
func TestCompactPreservesEveryRead(t *testing.T) {
	dir := t.TempDir()
	database, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f := buildCompactFixture(t, database, 40)
	doc := f.doc
	text, authors := doc.Text(), strings.Join(docAuthors(t, doc), ",")
	hotBefore := doc.Snapshot().TotalLen()

	// Horizon strictly after every recorded deletion: everything is cold.
	stats, err := doc.Compact(f.clock.Peek().Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived == 0 || stats.Runs == 0 {
		t.Fatalf("nothing archived: %+v", stats)
	}
	if stats.HotAfter != hotBefore-stats.Archived {
		t.Fatalf("hot accounting wrong: %+v (before %d)", stats, hotBefore)
	}
	// Every tombstone was cold, so only the visible text stays hot.
	if stats.HotAfter != doc.Len() {
		t.Fatalf("hot set %d after archiving every cold tombstone, want the %d visible", stats.HotAfter, doc.Len())
	}
	if doc.ArchivedLen() != stats.Archived {
		t.Fatalf("ArchivedLen %d, stats %d", doc.ArchivedLen(), stats.Archived)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if doc.Text() != text {
		t.Fatal("visible text changed")
	}
	if got := strings.Join(docAuthors(t, doc), ","); got != authors {
		t.Fatalf("Authors changed: %v vs %v", got, authors)
	}
	f.checkReads(t, "compacted", doc)

	// A second pass with nothing newly cold must be a no-op.
	stats2, err := doc.Compact(f.clock.Peek())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Archived != 0 {
		t.Fatalf("second pass archived %d", stats2.Archived)
	}

	// Reopen from disk: the hot load must shrink to the compacted set and
	// the archive must serve the full history.
	docID := doc.ID()
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	e2, err := NewEngine(db2, f.clock)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := e2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Text() != text {
		t.Fatalf("reloaded text diverged:\n got %q\nwant %q", doc2.Text(), text)
	}
	if doc2.Snapshot().TotalLen() != stats.HotAfter {
		t.Fatalf("reloaded hot set %d, want %d", doc2.Snapshot().TotalLen(), stats.HotAfter)
	}
	if doc2.ArchivedLen() != stats.Archived {
		t.Fatalf("reloaded archive %d, want %d", doc2.ArchivedLen(), stats.Archived)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.checkReads(t, "reloaded", doc2)
}

func docAuthors(t *testing.T, d *Document) []string {
	t.Helper()
	buf, err := d.Buffer()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	buf.WalkVisible(func(ch *texttree.Char) bool {
		if !seen[ch.Author] {
			seen[ch.Author] = true
			out = append(out, ch.Author)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// TestUndoRehydratesArchivedDelete pins the rehydration path: undoing a
// delete whose tombstones were archived must bring the instances back into
// the chars table and the hot chain, restore the text, keep the deletion
// interval visible to time travel, and survive a reopen. A redo must then
// hide them again.
func TestUndoRehydratesArchivedDelete(t *testing.T) {
	dir := t.TempDir()
	database, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	clock := util.NewFakeClock(time.Unix(4_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.CreateDocument("alice", "undo-archive")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendText("alice", "the quick brown fox"); err != nil {
		t.Fatal(err)
	}
	full := doc.Text()
	preDelete := clock.Peek()
	if _, err := doc.DeleteRange("bob", 4, 6); err != nil { // "quick "
		t.Fatal(err)
	}
	deleted := doc.Text()
	postDelete := clock.Peek()

	stats, err := doc.Compact(clock.Peek().Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 6 {
		t.Fatalf("archived %d, want 6", stats.Archived)
	}

	if _, err := doc.UndoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if doc.Text() != full {
		t.Fatalf("undo of archived delete: %q, want %q", doc.Text(), full)
	}
	if doc.ArchivedLen() != 0 {
		t.Fatalf("%d instances still archived after rehydration", doc.ArchivedLen())
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Time travel must still see the deletion interval.
	if got := doc.TextAt(postDelete); got != deleted {
		t.Fatalf("TextAt inside interval = %q, want %q", got, deleted)
	}
	if got := doc.TextAt(preDelete); got != full {
		t.Fatalf("TextAt before interval = %q, want %q", got, full)
	}

	// The rehydrated rows must be durable: reopen and re-check.
	docID := doc.ID()
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	e2, err := NewEngine(db2, clock)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := e2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Text() != full {
		t.Fatalf("reloaded undo state: %q, want %q", doc2.Text(), full)
	}
	if doc2.ArchivedLen() != 0 {
		t.Fatal("archive rows survived rehydration")
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Redo re-hides exactly the rehydrated set.
	if _, err := doc2.RedoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if doc2.Text() != deleted {
		t.Fatalf("redo: %q, want %q", doc2.Text(), deleted)
	}
}

// TestCompactCrashSafety drives the two crash schedules around the
// compaction transaction: a crash with the commit on disk must replay the
// whole pass (archive present, tombstones gone), and a crash with a torn
// commit must roll the whole pass back (tombstones intact, no archive) —
// with every read identical either way.
func TestCompactCrashSafety(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := buildCompactFixture(t, database, 25)
	doc := f.doc
	text := doc.Text()
	docID := doc.ID()
	hotBefore := doc.Snapshot().TotalLen()

	stats, err := doc.Compact(f.clock.Peek())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived == 0 {
		t.Fatal("nothing archived")
	}
	logBytes, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(tear int) (*Document, *db.Database) {
		t.Helper()
		crashStore := wal.NewMemStore()
		crashStore.Append(logBytes)
		if tear > 0 {
			crashStore.Truncate(crashStore.Len() - tear)
		}
		// Pages are lost entirely: redo rebuilds everything from the log.
		db2, err := db.OpenWith(storage.NewMemDisk(), crashStore, db.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngine(db2, f.clock)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := e2.OpenDocument(docID)
		if err != nil {
			t.Fatal(err)
		}
		return d2, db2
	}

	// Intact log: the compaction replays.
	replayed, _ := reopen(0)
	if replayed.Text() != text {
		t.Fatal("replayed compaction changed the text")
	}
	if replayed.ArchivedLen() != stats.Archived {
		t.Fatalf("replayed archive %d, want %d", replayed.ArchivedLen(), stats.Archived)
	}
	if replayed.Snapshot().TotalLen() != stats.HotAfter {
		t.Fatalf("replayed hot set %d, want %d", replayed.Snapshot().TotalLen(), stats.HotAfter)
	}
	if err := replayed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.checkReads(t, "replayed", replayed)

	// Torn tail: the compaction transaction loses its commit record and
	// must roll back in one piece — the document reverts to the full
	// uncompacted tombstone set.
	torn, _ := reopen(3)
	if torn.Text() != text {
		t.Fatal("rolled-back compaction changed the text")
	}
	if torn.ArchivedLen() != 0 {
		t.Fatalf("rolled-back pass left %d archived", torn.ArchivedLen())
	}
	if torn.Snapshot().TotalLen() != hotBefore {
		t.Fatalf("rolled-back hot set %d, want %d", torn.Snapshot().TotalLen(), hotBefore)
	}
	if err := torn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.checkReads(t, "rolled back", torn)
}

// TestBackgroundCompactor exercises the engine-level compactor: with a
// short interval and zero retention it must archive tombstones of open
// documents without help, and stop cleanly.
func TestBackgroundCompactor(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	e, err := NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.CreateDocument("alice", "bg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendText("alice", "abcdefghij"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.DeleteRange("alice", 2, 5); err != nil {
		t.Fatal(err)
	}
	e.StartCompactor(5*time.Millisecond, 0)
	deadline := time.Now().Add(5 * time.Second)
	for doc.ArchivedLen() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := e.StopCompactor(); err != nil {
		t.Fatal(err)
	}
	if doc.ArchivedLen() != 5 {
		t.Fatalf("background compactor archived %d, want 5", doc.ArchivedLen())
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionVsReadersFuzz runs writers, MVCC snapshot readers and a
// concurrent compactor against one document under the race detector: no
// published snapshot may ever tear, and reads before the advancing horizon
// must stay serveable throughout. The full-size variant runs in the
// nightly un-short suite.
func TestCompactionVsReadersFuzz(t *testing.T) {
	writers, readers, ops := 4, 3, 120
	if testing.Short() {
		writers, readers, ops = 2, 2, 40
	}
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	e, err := NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.CreateDocument("u0", "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendText("u0", strings.Repeat("seed ", 40)); err != nil {
		t.Fatal(err)
	}
	epoch := e.Clock().Now()

	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	errCh := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			user := fmt.Sprintf("u%d", w)
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				switch rng.Intn(3) {
				case 0:
					// Sample the length once: other writers shrink the
					// document between reads, and a stale length only means
					// an out-of-range delete (ignored), never a panic.
					if n := doc.Len(); n > 20 {
						if _, err := doc.DeleteRange(user, rng.Intn(n-8), 1+rng.Intn(4)); err != nil && !strings.Contains(err.Error(), "out of range") {
							errCh <- err
							return
						}
						continue
					}
					fallthrough
				case 1:
					if _, err := doc.AppendText(user, "ab"); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := doc.UndoLocal(user); err != nil && err != ErrNothingToUndo {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for !stop.Load() {
				s := doc.Snapshot()
				if err := s.Tree().CheckInvariants(); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if s.Len() != len([]rune(s.Text())) {
					errCh <- fmt.Errorf("reader %d: snapshot len tore", r)
					return
				}
				_ = s.TextAt(epoch) // crosses the horizon once compaction runs
			}
		}(r)
	}
	// Concurrent compactor: archive everything cold as of "now", as fast
	// as it can.
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			if _, err := doc.Compact(e.Clock().Now()); err != nil {
				errCh <- fmt.Errorf("compactor: %w", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wwg.Wait()       // writers burn their op budget
	stop.Store(true) // then stop the readers and the compactor
	rwg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanAnchorsSurviveCompaction pins the span-resolution contract
// across the horizon: a span whose anchor characters were deleted (so the
// anchors are tombstones) must resolve to the same visible range, render
// the same markup and keep its outline entry after compaction archives
// the anchors — an archived tombstone's text resumes directly after its
// run's anchor, exactly like a hot tombstone's. The same holds after a
// reopen, while the archive is still parked on disk: resolving an anchor
// that only the archive holds faults it in.
func TestSpanAnchorsSurviveCompaction(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	clock := util.NewFakeClock(time.Unix(5_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.CreateDocument("alice", "spans")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.AppendText("alice", "TITLE then hello WORLD bye"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.ApplyLayout("alice", 0, 5, SpanHeading, "1"); err != nil { // "TITLE"
		t.Fatal(err)
	}
	if _, err := doc.ApplyLayout("alice", 17, 5, SpanBold, "true"); err != nil { // "WORLD"
		t.Fatal(err)
	}
	// Tombstone both spans' start anchors: the heading start ("TI") and
	// the bold start ("WOR").
	if _, err := doc.DeleteRange("bob", 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.DeleteRange("bob", 15, 3); err != nil {
		t.Fatal(err)
	}
	spans, err := doc.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	type rng struct{ from, to int }
	ranges := func(doc *Document) []rng {
		out := make([]rng, 0, len(spans))
		for _, sp := range spans {
			f, to := doc.SpanRange(sp)
			out = append(out, rng{f, to})
		}
		return out
	}
	before := ranges(doc)
	markup, err := doc.RenderMarkup()
	if err != nil {
		t.Fatal(err)
	}
	outline, err := doc.Outline()
	if err != nil {
		t.Fatal(err)
	}
	if len(outline) != 1 {
		t.Fatalf("%d outline entries before compaction", len(outline))
	}

	stats, err := doc.Compact(clock.Peek().Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 5 {
		t.Fatalf("archived %d, want 5", stats.Archived)
	}
	// Each reader must resolve the archived anchors on the compacted
	// document, and on a reopened one whose archive is still parked on disk
	// when the reader runs (a fresh reopen per reader, so none of them
	// relies on another having faulted the archive in).
	check := func(label string, open func() *Document) {
		t.Helper()
		outline2, err := open().Outline()
		if err != nil {
			t.Fatal(err)
		}
		if len(outline2) != 1 || outline2[0] != outline[0] {
			t.Fatalf("%s: outline changed: %+v -> %+v", label, outline, outline2)
		}
		markup2, err := open().RenderMarkup()
		if err != nil {
			t.Fatal(err)
		}
		if markup2 != markup {
			t.Fatalf("%s: markup changed:\n before %q\n after  %q", label, markup, markup2)
		}
		after := ranges(open())
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s: span %d range changed: %v -> %v", label, i, before[i], after[i])
			}
		}
	}
	check("after compaction", func() *Document { return doc })
	check("after reopen", func() *Document {
		d := reload(t, e, doc.ID())
		if d.ArchiveResident() {
			t.Fatal("reopen decoded the archive eagerly")
		}
		return d
	})
}
