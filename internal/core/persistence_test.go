package core

import (
	"slices"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/util"
)

// TestEverythingSurvivesReopen exercises the full persistence matrix: text,
// tombstones, spans, notes, versions, operation history (with undo state),
// properties, read events and provenance must all reload identically from
// the database after the engine is discarded.
func TestEverythingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	database, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	clock := util.NewFakeClock(time.Unix(2_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}

	src, _ := e.CreateDocument("alice", "src")
	src.InsertText("alice", 0, "source material")
	doc, _ := e.CreateDocument("alice", "main")
	doc.InsertText("alice", 0, "hello world, persistent edition")
	doc.DeleteRange("bob", 0, 6) // "world, persistent edition"
	clip, _ := src.Copy("bob", 0, 6)
	doc.Paste("bob", 0, clip) // "sourceworld, ..."
	spanID, _ := doc.ApplyLayout("alice", 0, 6, SpanBold, "true")
	noteID, _ := insertNote(doc, "carol", 3, "check spelling")
	v, _ := doc.CreateVersion("alice", "milestone")
	doc.UndoLocal("bob") // undo the paste
	doc.SetProperty("alice", "project", "tendax")
	doc.RecordRead("dave")
	wantText := doc.Text()
	wantHistory := doc.History()
	docID, srcID := doc.ID(), src.ID()

	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh database + engine from the same directory.
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

	if doc2.Text() != wantText {
		t.Fatalf("text after reopen: %q want %q", doc2.Text(), wantText)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// History, every field (instants compared with Equal, undo flags included).
	gotHistory := doc2.History()
	if len(gotHistory) != len(wantHistory) {
		t.Fatalf("history length %d want %d", len(gotHistory), len(wantHistory))
	}
	for i := range wantHistory {
		w, g := wantHistory[i], gotHistory[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.User != w.User || !g.Created.Equal(w.Created) ||
			g.Ref != w.Ref || g.Undone != w.Undone || g.Chars != w.Chars {
			t.Fatalf("history[%d]: got %+v want %+v", i, g, w)
		}
	}

	// Redo still works against the reloaded log: redo bob's undone paste.
	if _, err := doc2.RedoLocal("bob"); err != nil {
		t.Fatalf("redo after reopen: %v", err)
	}
	if doc2.Len() != len([]rune(wantText))+6 {
		t.Fatalf("redo after reopen wrong length: %d", doc2.Len())
	}

	// Spans.
	spans, err := doc2.Spans()
	if err != nil {
		t.Fatal(err)
	}
	foundBold, foundNote := false, false
	for _, s := range spans {
		if s.ID == spanID && s.Kind == SpanBold {
			foundBold = true
		}
		if s.ID == noteID && s.Kind == SpanNote && s.Value == "check spelling" {
			foundNote = true
		}
	}
	if !foundBold || !foundNote {
		t.Fatalf("spans lost across reopen: %+v", spans)
	}

	// Versions reconstruct the old text.
	versions, err := doc2.Versions()
	if err != nil || len(versions) != 1 || versions[0].ID != v.ID {
		t.Fatalf("versions = %+v, %v", versions, err)
	}
	vtext, err := doc2.VersionText(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(vtext) == 0 {
		t.Fatal("version text empty after reopen")
	}

	// Properties and read events.
	props, _ := doc2.Properties()
	if props["project"] != "tendax" {
		t.Fatalf("props = %v", props)
	}
	reads, _ := doc2.readEvents()
	if len(reads) != 1 || reads[0].User != "dave" {
		t.Fatalf("reads = %+v", reads)
	}

	// Provenance of the re-done paste points at src.
	metas, err := doc2.RangeMeta(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		if m.SourceDoc != srcID {
			t.Fatalf("provenance lost: %+v", m)
		}
	}
}

// TestLargeOpChunkingRoundTrip covers operations whose char-ID payload
// spills into continuation rows: they must reload with their IDs in order
// and undo correctly. A typed run's IDs are one stretch of a few bytes
// however long it is, so the spilling op is a delete that lists the
// run's instances in shuffled order, about four bytes per ID.
func TestLargeOpChunkingRoundTrip(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	clock := util.NewFakeClock(time.Unix(2_000_000, 0).UTC(), time.Millisecond)
	e, _ := NewEngine(database, clock)
	doc, _ := e.CreateDocument("alice", "big")
	big := make([]rune, 1000)
	for i := range big {
		big[i] = rune('a' + i%26)
	}
	res, err := doc.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: string(big)}})
	if err != nil {
		t.Fatal(err)
	}
	ids := res[0].IDs
	shuffled := make([]util.ID, len(ids))
	for i, j := range perm(util.NewRand(7), len(ids)) {
		shuffled[i] = ids[j]
	}
	if _, err := doc.Apply("alice", []EditOp{{Kind: EditDelete, Chars: shuffled}}); err != nil {
		t.Fatal(err)
	}
	if n := rowCount(t, e.tOpChunks); n < 2 {
		t.Fatalf("the delete's payload took %d continuation rows, want it to spill into several", n)
	}

	// Reload the ops log from scratch and undo the big delete, then the
	// insert.
	e2, _ := NewEngine(database, clock)
	doc2, err := e2.OpenDocument(doc.ID())
	if err != nil {
		t.Fatal(err)
	}
	h := doc2.History()
	if len(h) != 2 || h[0].Chars != 1000 || h[1].Chars != 1000 {
		t.Fatalf("history after reload = %+v", h)
	}
	for i, want := range [][]util.ID{ids, shuffled} {
		if got, err := doc2.opIDs(doc2.ops[i].ID); err != nil || !slices.Equal(got.AppendTo(nil), want) {
			t.Fatalf("op %d's row reads %d IDs (%v), not the %d it logged in order", i, got.Len(), err, len(want))
		}
	}
	if _, err := doc2.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if doc2.Len() != 1000 {
		t.Fatalf("undo of chunked delete incomplete: %d chars back", doc2.Len())
	}
	if _, err := doc2.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if doc2.Len() != 0 {
		t.Fatalf("undo of the insert incomplete: %d chars left", doc2.Len())
	}
	if _, err := doc2.RedoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if doc2.Len() != 1000 {
		t.Fatalf("redo of the insert incomplete: %d", doc2.Len())
	}
}

// TestUndoRedoInverseProperty: randomized histories where undo∘redo and
// redo∘undo always restore the exact text (per user, interleaved).
func TestUndoRedoInverseProperty(t *testing.T) {
	database, _ := db.Open(db.Options{})
	defer database.Close()
	clock := util.NewFakeClock(time.Unix(2_000_000, 0).UTC(), time.Millisecond)
	e, _ := NewEngine(database, clock)
	doc, _ := e.CreateDocument("u0", "prop")
	rng := util.NewRand(271)
	users := []string{"u0", "u1", "u2"}
	for step := 0; step < 120; step++ {
		user := users[rng.Intn(len(users))]
		if doc.Len() == 0 || rng.Float64() < 0.7 {
			pos := 0
			if doc.Len() > 0 {
				pos = rng.Intn(doc.Len() + 1)
			}
			if _, err := doc.InsertText(user, pos, rng.Letters(1+rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		} else {
			pos := rng.Intn(doc.Len())
			n := 1 + rng.Intn(3)
			if pos+n > doc.Len() {
				n = doc.Len() - pos
			}
			if n > 0 {
				if _, err := doc.DeleteRange(user, pos, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Float64() < 0.2 {
			before := doc.Text()
			u := users[rng.Intn(len(users))]
			if _, err := doc.UndoLocal(u); err == nil {
				if _, err := doc.RedoLocal(u); err != nil {
					t.Fatalf("step %d: redo failed after undo: %v", step, err)
				}
				if doc.Text() != before {
					t.Fatalf("step %d: undo∘redo not identity:\n%q\n%q",
						step, before, doc.Text())
				}
			}
		}
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
