package core

import (
	"math"
	"testing"

	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// TestCheckpointedCrashRecoveryDocRoundTrip edits a document across many
// transactions with fuzzy checkpoints interleaved, crashes (pages and
// truncated log frozen as stable storage would hold them), and verifies the
// recovered document matches byte-for-byte — while the log stays a fraction
// of the full editing history.
func TestCheckpointedCrashRecoveryDocRoundTrip(t *testing.T) {
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
	doc, err := eng.CreateDocument("author", "ckpt-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	rng := util.NewRand(23)
	maxLog := 0
	const ops = 300
	for i := 0; i < ops; i++ {
		switch {
		case i%7 == 3 && doc.Len() > 10:
			if _, err := doc.DeleteRange("author", rng.Intn(doc.Len()-4), 3); err != nil {
				t.Fatal(err)
			}
		case i%5 == 1 && doc.Len() > 0:
			if _, err := doc.InsertText("author", rng.Intn(doc.Len()), rng.Letters(5)); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := doc.AppendText("author", rng.Letters(6)); err != nil {
				t.Fatal(err)
			}
		}
		if i%40 == 39 {
			if _, err := eng.db.FuzzyCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if store.Len() > maxLog {
			maxLog = store.Len()
		}
	}
	if _, err := eng.db.FuzzyCheckpoint(); err != nil {
		t.Fatal(err)
	}
	want := doc.Text()
	docID := doc.ID()
	if store.Len() >= maxLog {
		t.Fatalf("final checkpoint left the log at its peak (%d bytes)", store.Len())
	}

	// Crash: stable storage is the page snapshot plus the truncated log.
	logBytes, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	crashStore := wal.NewMemStore()
	crashStore.Append(logBytes)
	db2, err := db.OpenWith(disk.SnapshotHead(math.MaxInt), crashStore, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Recovery.CheckpointLSN == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	eng2, err := NewEngine(db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := eng2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc2.Text(); got != want {
		t.Fatalf("document diverged after checkpointed recovery:\n want %d chars %q\n got  %d chars %q",
			len(want), want, len(got), got)
	}
	if err := doc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
