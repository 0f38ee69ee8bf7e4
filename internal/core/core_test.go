package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	clock := util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCreateAndEditDocument(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "report")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "hello world"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "hello world" {
		t.Fatalf("Text = %q", d.Text())
	}
	if _, err := d.InsertText("bob", 5, ","); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "hello, world" {
		t.Fatalf("Text = %q", d.Text())
	}
	if _, err := d.DeleteRange("alice", 0, 6); err != nil {
		t.Fatal(err)
	}
	if d.Text() != " world" {
		t.Fatalf("Text = %q", d.Text())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	info := d.Info()
	if info.Size != 6 || info.LastAuthor != "alice" {
		t.Fatalf("Info = %+v", info)
	}
	if len(info.Authors) != 2 {
		t.Fatalf("Authors = %v", info.Authors)
	}
}

func TestInsertPositionValidation(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "doc")
	if _, err := d.InsertText("alice", 5, "x"); !errors.Is(err, ErrRange) {
		t.Fatalf("err = %v, want ErrRange", err)
	}
	if _, err := d.DeleteRange("alice", 0, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("delete on empty doc: %v, want ErrRange", err)
	}
	if _, err := d.InsertText("alice", 0, ""); err == nil {
		t.Fatal("empty insert accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := e.CreateDocument("alice", "persist")
	d.InsertText("alice", 0, "abcdef")
	d.DeleteRange("alice", 1, 2) // "adef"
	d.InsertText("bob", 2, "XY") // "adXYef"
	docID := d.ID()

	// Second engine over the same database simulates process restart
	// (the docs cache is cold; buffers rebuild from the chars table).
	e2, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Text() != "adXYef" {
		t.Fatalf("reloaded text = %q, want adXYef", d2.Text())
	}
	if err := d2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	database.Close()
}

func TestCrashRecoveryRestoresDocument(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond)
	e, _ := NewEngine(database, clock)
	d, _ := e.CreateDocument("alice", "crashdoc")
	d.InsertText("alice", 0, "survives the crash")
	docID := d.ID()
	// Crash: flush pages (log is already flushed per commit), drop
	// everything, reopen from the raw disk + log.
	database.Pool().FlushAll()

	db2, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(db2, clock)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Text() != "survives the crash" {
		t.Fatalf("text after crash = %q", d2.Text())
	}
}

func TestUndoRedoLocal(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "undoable")
	d.InsertText("alice", 0, "base ")
	d.InsertText("alice", 5, "more")
	if d.Text() != "base more" {
		t.Fatalf("Text = %q", d.Text())
	}
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "base " {
		t.Fatalf("after undo: %q", d.Text())
	}
	if _, err := d.RedoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "base more" {
		t.Fatalf("after redo: %q", d.Text())
	}
	// Undo delete restores.
	d.DeleteRange("alice", 0, 5)
	if d.Text() != "more" {
		t.Fatalf("after delete: %q", d.Text())
	}
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "base more" {
		t.Fatalf("after undo of delete: %q", d.Text())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUndoLocalIsSelective(t *testing.T) {
	// Local undo reverts the caller's latest op even when another user
	// edited afterwards — the paper's "local undo".
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "selective")
	d.InsertText("alice", 0, "AAA")
	d.InsertText("bob", 3, "BBB")
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "BBB" {
		t.Fatalf("after alice's local undo: %q, want BBB", d.Text())
	}
	if _, err := d.UndoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "" {
		t.Fatalf("after bob's local undo: %q, want empty", d.Text())
	}
	if _, err := d.RedoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "AAA" {
		t.Fatalf("after alice's redo: %q, want AAA", d.Text())
	}
}

func TestUndoGlobal(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "global")
	d.InsertText("alice", 0, "one ")
	d.InsertText("bob", 4, "two")
	// Global undo by alice undoes bob's op (the most recent).
	if _, err := d.UndoGlobal("alice"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "one " {
		t.Fatalf("after global undo: %q", d.Text())
	}
	if _, err := d.RedoGlobal("carol"); err != nil {
		t.Fatal(err)
	}
	if d.Text() != "one two" {
		t.Fatalf("after global redo: %q", d.Text())
	}
}

func TestUndoNothing(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "empty")
	if _, err := d.UndoLocal("alice"); !errors.Is(err, ErrNothingToUndo) {
		t.Fatalf("err = %v, want ErrNothingToUndo", err)
	}
	if _, err := d.RedoLocal("alice"); !errors.Is(err, ErrNothingToRedo) {
		t.Fatalf("err = %v, want ErrNothingToRedo", err)
	}
}

func TestUndoStackDepth(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "deep")
	for i := 0; i < 10; i++ {
		d.InsertText("alice", d.Len(), fmt.Sprintf("%d", i))
	}
	for i := 0; i < 10; i++ {
		if _, err := d.UndoLocal("alice"); err != nil {
			t.Fatalf("undo %d: %v", i, err)
		}
	}
	if d.Text() != "" {
		t.Fatalf("after 10 undos: %q", d.Text())
	}
	for i := 0; i < 10; i++ {
		if _, err := d.RedoLocal("alice"); err != nil {
			t.Fatalf("redo %d: %v", i, err)
		}
	}
	if d.Text() != "0123456789" {
		t.Fatalf("after 10 redos: %q", d.Text())
	}
}

func TestCopyPasteProvenance(t *testing.T) {
	e := newEngine(t)
	src, _ := e.CreateDocument("alice", "source")
	src.InsertText("alice", 0, "copy this text")
	clip, err := src.Copy("bob", 5, 4) // "this"
	if err != nil {
		t.Fatal(err)
	}
	if clip.Text != "this" {
		t.Fatalf("clip = %q", clip.Text)
	}
	dst, _ := e.CreateDocument("bob", "target")
	dst.InsertText("bob", 0, "[]")
	if _, err := dst.Paste("bob", 1, clip); err != nil {
		t.Fatal(err)
	}
	if dst.Text() != "[this]" {
		t.Fatalf("dst = %q", dst.Text())
	}
	// Character-level provenance points back at the source chars.
	metas, err := dst.RangeMeta(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metas {
		if m.SourceDoc != src.ID() {
			t.Fatalf("char %d srcdoc = %v, want %v", i, m.SourceDoc, src.ID())
		}
		if m.SourceChar != clip.SrcChars[i] {
			t.Fatalf("char %d srcchar = %v, want %v", i, m.SourceChar, clip.SrcChars[i])
		}
	}
	// Plain typed text has no provenance.
	m, _ := dst.CharMetaAt(0)
	if m.SourceDoc != util.NilID {
		t.Fatal("typed char has provenance")
	}
}

func TestPasteFromExternalSource(t *testing.T) {
	e := newEngine(t)
	ext, err := e.CreateExternalSource("https://example.org/spec")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := e.CreateDocument("alice", "notes")
	if _, err := d.Paste("alice", 0, Clipboard{Text: "quoted", SrcDoc: ext}); err != nil {
		t.Fatal(err)
	}
	m, _ := d.CharMetaAt(0)
	if m.SourceDoc != ext {
		t.Fatalf("external provenance lost: %v", m.SourceDoc)
	}
	exts, err := e.ExternalSources()
	if err != nil || len(exts) != 1 || exts[0].Name != "https://example.org/spec" {
		t.Fatalf("ExternalSources = %v, %v", exts, err)
	}
}

func TestLayoutSpans(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "styled")
	d.InsertText("alice", 0, "Heading then body text")
	spanID, err := d.ApplyLayout("alice", 0, 7, SpanBold, "true")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyLayout("alice", 0, 7, SpanHeading, "1"); err != nil {
		t.Fatal(err)
	}
	spans, err := d.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	start, end := d.SpanRange(spans[0])
	if start != 0 || end != 7 {
		t.Fatalf("span range = [%d,%d), want [0,7)", start, end)
	}
	// Inserting before the span shifts its resolved range (anchors are
	// identities, not offsets).
	d.InsertText("bob", 0, ">> ")
	start, end = d.SpanRange(spans[0])
	if start != 3 || end != 10 {
		t.Fatalf("span range after prefix insert = [%d,%d), want [3,10)", start, end)
	}
	if err := d.removeSpan("alice", spanID); err != nil {
		t.Fatal(err)
	}
	spans, _ = d.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans after removal, want 1", len(spans))
	}
}

func TestUndoLayout(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "layoutundo")
	d.InsertText("alice", 0, "text")
	if _, err := d.ApplyLayout("alice", 0, 4, SpanItalic, "true"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	spans, _ := d.Spans()
	if len(spans) != 0 {
		t.Fatal("layout survived its undo")
	}
	if _, err := d.RedoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	spans, _ = d.Spans()
	if len(spans) != 1 {
		t.Fatal("layout redo did not restore the span")
	}
}

func TestNotes(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "noted")
	d.InsertText("alice", 0, "needs review here")
	if _, err := insertNote(d, "bob", 6, "please verify this claim"); err != nil {
		t.Fatal(err)
	}
	spans, _ := d.Spans()
	if len(spans) != 1 || spans[0].Kind != SpanNote {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Value != "please verify this claim" {
		t.Fatal("note text lost")
	}
}

func TestVersionsAndTimeTravel(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "versioned")
	d.InsertText("alice", 0, "draft one")
	v1, err := d.CreateVersion("alice", "v1")
	if err != nil {
		t.Fatal(err)
	}
	d.DeleteRange("alice", 6, 3)
	d.InsertText("alice", 6, "two")
	v2, _ := d.CreateVersion("alice", "v2")
	d.InsertText("bob", 0, "FINAL: ")

	got1, err := d.VersionText(v1.ID)
	if err != nil || got1 != "draft one" {
		t.Fatalf("v1 text = %q, %v", got1, err)
	}
	got2, _ := d.VersionText(v2.ID)
	if got2 != "draft two" {
		t.Fatalf("v2 text = %q", got2)
	}
	if d.Text() != "FINAL: draft two" {
		t.Fatalf("current = %q", d.Text())
	}
	versions, _ := d.Versions()
	if len(versions) != 2 || versions[0].Name != "v1" || versions[1].Name != "v2" {
		t.Fatalf("Versions = %+v", versions)
	}
	if _, err := d.VersionText(util.ID(999999)); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("bogus version err = %v", err)
	}
}

func TestReadEventsAndProperties(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "meta")
	d.InsertText("alice", 0, "content")
	if err := d.RecordRead("bob"); err != nil {
		t.Fatal(err)
	}
	if err := d.RecordRead("carol"); err != nil {
		t.Fatal(err)
	}
	reads, err := d.readEvents()
	if err != nil || len(reads) != 2 {
		t.Fatalf("ReadEvents = %v, %v", reads, err)
	}
	byBob, err := e.ReadsByUser("bob")
	if err != nil || len(byBob) != 1 || byBob[0].Doc != d.ID() {
		t.Fatalf("ReadsByUser = %v, %v", byBob, err)
	}

	if err := d.SetProperty("alice", "project", "tendax"); err != nil {
		t.Fatal(err)
	}
	if err := d.SetProperty("alice", "project", "tendax-2"); err != nil {
		t.Fatal(err)
	}
	props, err := d.Properties()
	if err != nil || props["project"] != "tendax-2" {
		t.Fatalf("Properties = %v, %v", props, err)
	}
}

// TestSetPropertyConcurrentOneRow: writers setting one key at once leave
// one props row per (document, key), because the lookup of the existing
// row and the insert run under the document lock.
func TestSetPropertyConcurrentOneRow(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "props")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, writers = 20, 8
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("k%d", r)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				if err := d.SetProperty("alice", key, fmt.Sprint(w)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
	rids, err := e.tProps.LookupEq("doc", int64(d.ID()))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, rid := range rids {
		row, err := e.tProps.Get(nil, rid)
		if err != nil {
			t.Fatal(err)
		}
		rows[row[2].(string)]++
	}
	for r := 0; r < rounds; r++ {
		if key := fmt.Sprintf("k%d", r); rows[key] != 1 {
			t.Errorf("key %s has %d props rows, want 1", key, rows[key])
		}
	}
}

func TestAwarenessEventsOnCommit(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "live")
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()
	d.InsertText("alice", 0, "hi")
	d.DeleteRange("alice", 0, 1)

	ev1, _ := sub.Next()
	if ev1.Kind != awareness.EvInsert || ev1.Text != "hi" || ev1.Pos != 0 {
		t.Fatalf("ev1 = %+v", ev1)
	}
	ev2, _ := sub.Next()
	if ev2.Kind != awareness.EvDelete || ev2.N != 1 {
		t.Fatalf("ev2 = %+v", ev2)
	}
	if ev2.Seq != ev1.Seq+1 {
		t.Fatal("event sequence not dense")
	}
}

func TestHistoryRecordsAllOps(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "hist")
	d.InsertText("alice", 0, "abc")
	d.DeleteRange("alice", 0, 1)
	d.Copy("alice", 0, 2)
	d.UndoLocal("alice")
	h := d.History()
	kinds := make([]string, len(h))
	for i, op := range h {
		kinds[i] = op.Kind
	}
	want := []string{"insert", "delete", "copy", "undo"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("history kinds = %v, want %v", kinds, want)
	}
}

func TestConcurrentEditorsOnOneDocument(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "shared")
	const users, opsPer = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", u)
			for i := 0; i < opsPer; i++ {
				if _, err := d.AppendText(user, fmt.Sprintf("[%s:%d]", user, i)); err != nil {
					errs <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every op's text must appear exactly once.
	text := d.Text()
	for u := 0; u < users; u++ {
		for i := 0; i < opsPer; i++ {
			frag := fmt.Sprintf("[user%d:%d]", u, i)
			if strings.Count(text, frag) != 1 {
				t.Fatalf("fragment %s appears %d times", frag, strings.Count(text, frag))
			}
		}
	}
	info := d.Info()
	if len(info.Authors) != users+1 { // +creator
		t.Fatalf("authors = %v", info.Authors)
	}
}

func TestConcurrentEditsAcrossDocuments(t *testing.T) {
	e := newEngine(t)
	const docs = 4
	var wg sync.WaitGroup
	errs := make(chan error, docs)
	for i := 0; i < docs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i)
			d, err := e.CreateDocument(user, fmt.Sprintf("doc%d", i))
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 30; j++ {
				if _, err := d.InsertText(user, d.Len(), "x"); err != nil {
					errs <- err
					return
				}
			}
			if d.Len() != 30 {
				errs <- fmt.Errorf("doc%d len = %d", i, d.Len())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	infos, err := e.ListDocuments()
	if err != nil || len(infos) != docs {
		t.Fatalf("ListDocuments = %d, %v", len(infos), err)
	}
}

func TestFindDocumentByName(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("alice", "findme")
	got, err := e.FindDocument("findme")
	if err != nil || got.ID() != d.ID() {
		t.Fatalf("FindDocument = %v, %v", got, err)
	}
	if _, err := e.FindDocument("nosuch"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("err = %v, want ErrDocNotFound", err)
	}
}

type denyChecker struct{ denyWrite bool }

func (c *denyChecker) Check(user string, doc util.ID, right Right) error {
	if right == RWrite && c.denyWrite && user != "owner" {
		return fmt.Errorf("denied: %s lacks %s", user, right)
	}
	return nil
}

func (c *denyChecker) ReadableMask(user string, doc util.ID, ids []util.ID) []bool {
	return nil
}

func TestAccessCheckerEnforced(t *testing.T) {
	e := newEngine(t)
	d, _ := e.CreateDocument("owner", "guarded")
	d.InsertText("owner", 0, "secret")
	e.SetAccessChecker(&denyChecker{denyWrite: true})
	if _, err := d.InsertText("intruder", 0, "x"); err == nil {
		t.Fatal("write by intruder allowed")
	}
	if _, err := d.DeleteRange("intruder", 0, 1); err == nil {
		t.Fatal("delete by intruder allowed")
	}
	if _, err := d.InsertText("owner", 6, "!"); err != nil {
		t.Fatalf("owner write blocked: %v", err)
	}
}
