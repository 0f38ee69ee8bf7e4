package core

import (
	"testing"
	"time"

	"tendax/internal/util"
)

// buildCompacted creates a document with archived cold tombstones and
// returns it plus the instant just before the deletions (a pre-horizon
// time-travel target) and the expected texts.
func buildCompacted(t *testing.T, e *Engine) (d *Document, preDelete time.Time, fullText, hotText string) {
	t.Helper()
	d, err := e.CreateDocument("alice", "lazy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "keep-DELETED-keep"); err != nil {
		t.Fatal(err)
	}
	preDelete = e.clock.Now()
	if _, err := d.DeleteRange("alice", 5, 7); err != nil { // "DELETED"
		t.Fatal(err)
	}
	horizon := e.clock.Now().Add(time.Hour)
	stats, err := d.Compact(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 7 {
		t.Fatalf("archived %d, want 7", stats.Archived)
	}
	return d, preDelete, "keep-DELETED-keep", "keep--keep"
}

func TestLazyArchiveOpenSkipsDecode(t *testing.T) {
	e := newEngine(t)
	d0, preDelete, fullText, hotText := buildCompacted(t, e)

	// Reopen on a fresh engine: the document must come up WITHOUT the
	// archive resident — open tracks the hot set alone.
	d := reload(t, e, d0.ID())
	if d.archiveResident() {
		t.Fatal("open decoded the archive eagerly")
	}
	if got := d.Text(); got != hotText {
		t.Fatalf("hot text %q, want %q", got, hotText)
	}

	// First PRE-horizon read faults the archive in and merges it
	// byte-identically.
	if got := d.textAt(preDelete); got != fullText {
		t.Fatalf("pre-horizon TextAt %q, want %q", got, fullText)
	}
	if !d.archiveResident() {
		t.Fatal("pre-horizon read did not load the archive")
	}
	if got := d.archivedLen(); got != 7 {
		t.Fatalf("ArchivedLen %d, want 7", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyArchiveSnapshotTakenBeforeLoad(t *testing.T) {
	e := newEngine(t)
	d0, preDelete, fullText, _ := buildCompacted(t, e)

	d := reload(t, e, d0.ID())
	// Take a snapshot while the archive is still parked on disk, then
	// time-travel through it: the lazily loaded archive must merge into
	// the pre-load snapshot too.
	snap := d.Snapshot()
	if got := snap.textAt(preDelete); got != fullText {
		t.Fatalf("pre-load snapshot TextAt %q, want %q", got, fullText)
	}
}

func TestLazyArchiveUndoRehydrates(t *testing.T) {
	e := newEngine(t)
	d0, _, fullText, _ := buildCompacted(t, e)

	d := reload(t, e, d0.ID())
	if d.archiveResident() {
		t.Fatal("archive resident before undo")
	}
	// Undo of the archived delete must lazily load, rehydrate, and
	// restore the full text.
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != fullText {
		t.Fatalf("after undo %q, want %q", got, fullText)
	}
	if !d.archiveResident() {
		t.Fatal("undo did not load the archive")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyArchiveVersionTextLoads(t *testing.T) {
	e := newEngine(t)
	d0, err := e.CreateDocument("alice", "lazy-version")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d0.InsertText("alice", 0, "keep-DELETED-keep"); err != nil {
		t.Fatal(err)
	}
	v, err := d0.CreateVersion("alice", "before-delete")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d0.DeleteRange("alice", 5, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := d0.Compact(e.clock.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	d := reload(t, e, d0.ID())
	if d.archiveResident() {
		t.Fatal("archive resident before version read")
	}
	// Reconstructing the pre-delete version needs the archived cold set.
	text, err := d.VersionText(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if text != "keep-DELETED-keep" {
		t.Fatalf("version text %q", text)
	}
	if !d.archiveResident() {
		t.Fatal("version read did not load the archive")
	}
}

func TestLazyArchiveAnchorResolution(t *testing.T) {
	e := newEngine(t)
	d0, _, _, _ := buildCompacted(t, e)

	d := reload(t, e, d0.ID())
	if d.archiveResident() {
		t.Fatal("archive resident before anchored edit")
	}
	// Find an archived instance ID from the original handle (the archive
	// there is resident after compaction).
	var archID util.ID
	buf, err := d0.buffer()
	if err != nil {
		t.Fatal(err)
	}
	for _, anchor := range buf.Archive().Anchors() {
		run := buf.Archive().Run(anchor)
		archID = run[0].ID
		break
	}
	if archID.IsNil() {
		t.Fatal("no archived instance found")
	}
	// An edit anchored at the archived instance must fault the archive in
	// and land where the archived text would resume.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, UseAnchor: true, Anchor: archID, Text: "+"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "keep-+-keep" {
		t.Fatalf("text %q, want keep-+-keep", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
