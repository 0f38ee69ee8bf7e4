package core

import (
	"fmt"
	"math"
	"testing"

	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/wal"
)

// TestCrashAfterRelocatingDeleteRecovers is the regression test for the
// phantom update record: tombstoning a character grows its row (DeletedBy,
// DeletedAt), and on a full page the grown row no longer fits and is
// relocated. Heap.Update used to log the in-place update before finding
// that out, so the committed log held an update that was never applied and
// redo failed with "storage: page full" — db.Open refused the database.
// The crash here comes with no checkpoint at all: recovery redoes the whole
// history, relocations included, and must land on the same text and the
// same tombstones.
func TestCrashAfterRelocatingDeleteRecovers(t *testing.T) {
	disk := storage.NewMemDisk()
	store := wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := eng.CreateDocument("a", "relocate")
	if err != nil {
		t.Fatal(err)
	}
	// One-letter author, several pages of densely packed character rows.
	for i := 0; i < 8; i++ {
		if _, err := doc.AppendText("a", "the quick brown fox jumps over the lazy dog and keeps running "); err != nil {
			t.Fatal(err)
		}
	}
	// A long deleter name makes every tombstoned row outgrow its slot.
	deleter := "a-deleter-whose-name-alone-outgrows-any-slack-a-packed-page-has-left"
	for _, r := range [][2]int{{10, 200}, {0, 5}, {40, 120}} {
		if _, err := doc.DeleteRange(deleter, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := doc.InsertText("a", 3, "typed after the deletes"); err != nil {
		t.Fatal(err)
	}
	wantText := doc.Text()
	wantChars := tombstoneView(t, doc)
	docID := doc.ID()

	// Crash: every edit above waited for its commit to be durable, so the
	// log as it stands is what the last sync left; no checkpoint ever ran.
	logBytes, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	crashStore := wal.NewMemStore()
	if err := crashStore.Append(logBytes); err != nil {
		t.Fatal(err)
	}
	db2, err := db.OpenWith(disk.SnapshotHead(math.MaxInt), crashStore, db.Options{})
	if err != nil {
		t.Fatalf("recovery refused the crash image: %v", err)
	}
	if db2.Recovery.CheckpointLSN != 0 {
		t.Fatal("a checkpoint shortened the redo range; the test no longer replays the deletes")
	}
	eng2, err := NewEngine(db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := eng2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc2.Text(); got != wantText {
		t.Fatalf("text diverged after recovery:\n want %q\n got  %q", wantText, got)
	}
	if got := tombstoneView(t, doc2); got != wantChars {
		t.Fatalf("tombstones diverged after recovery:\n want %s\n got  %s", wantChars, got)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tombstoneView renders every character instance in chain order with its
// deletion state.
func tombstoneView(t *testing.T, d *Document) string {
	t.Helper()
	buf, err := d.buffer()
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, ch := range buf.AllChars() {
		if ch.Deleted {
			out += fmt.Sprintf("[%c %s@%d]", ch.Rune, ch.DeletedBy, ch.DeletedAt.UnixNano())
		} else {
			out += string(ch.Rune)
		}
	}
	return out
}
