package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tendax/internal/db"
	"tendax/internal/util"
)

// The stress tests below run ≥8 concurrent writers against a file-backed
// store (group commit active) and then reopen the database, verifying that
// no acknowledged character was lost and that the durable operation log
// matches what was acknowledged. Run with -race they also exercise the
// commit pipeline's lock hand-off (CommitAsync releases locks before the
// fsync) and the deadlock-retry loop in Engine.withTxn, which same-document
// appenders hit constantly on the shared docs-table row.

const (
	stressWriters = 8
	stressOps     = 20
)

// writerRune gives each writer a distinctive letter so lost or duplicated
// characters are attributable.
func writerRune(i int) string { return string(rune('a' + i)) }

func reopenEngine(t *testing.T, dir string) (*Engine, *db.Database) {
	t.Helper()
	database, err := db.Open(db.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(database, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, database
}

func TestStressConcurrentAppendSharedDoc(t *testing.T) {
	if testing.Short() {
		t.Skip("8-writer file-backed stress run skipped in -short mode")
	}
	dir := t.TempDir()
	eng, database := reopenEngine(t, dir)
	doc, err := eng.CreateDocument("u0", "shared")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, stressWriters)
	for i := 0; i < stressWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i)
			for j := 0; j < stressOps; j++ {
				if _, err := doc.AppendText(user, writerRune(i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := stressWriters * stressOps
	text := doc.Text()
	if len(text) != total {
		t.Fatalf("lost characters: len=%d want %d", len(text), total)
	}
	for i := 0; i < stressWriters; i++ {
		if n := strings.Count(text, writerRune(i)); n != stressOps {
			t.Errorf("writer %d: %d of %d characters survived", i, n, stressOps)
		}
	}
	if err := doc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.History()); got != total {
		t.Fatalf("in-memory op log has %d ops, want %d", got, total)
	}
	docID := doc.ID()
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acknowledged must be durable: reopen from disk.
	eng2, db2 := reopenEngine(t, dir)
	defer db2.Close()
	doc2, err := eng2.OpenDocument(docID)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Text() != text {
		t.Fatalf("durable text diverges:\n mem %q\n db  %q", text, doc2.Text())
	}
	if got := len(doc2.History()); got != total {
		t.Fatalf("durable op log has %d ops, want %d", got, total)
	}
}

func TestStressConcurrentAppendDistinctDocs(t *testing.T) {
	if testing.Short() {
		t.Skip("8-writer file-backed stress run skipped in -short mode")
	}
	dir := t.TempDir()
	eng, database := reopenEngine(t, dir)
	docs := make([]*Document, stressWriters)
	for i := range docs {
		var err error
		if docs[i], err = eng.CreateDocument(fmt.Sprintf("u%d", i), fmt.Sprintf("doc%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, stressWriters)
	for i := 0; i < stressWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i)
			for j := 0; j < stressOps; j++ {
				if _, err := docs[i].AppendText(user, writerRune(i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ids := make([]util.ID, stressWriters)
	for i, d := range docs {
		want := strings.Repeat(writerRune(i), stressOps)
		if d.Text() != want {
			t.Fatalf("doc %d: got %q want %q", i, d.Text(), want)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		ids[i] = d.ID()
	}
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, db2 := reopenEngine(t, dir)
	defer db2.Close()
	for i, id := range ids {
		d, err := eng2.OpenDocument(id)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Repeat(writerRune(i), stressOps)
		if d.Text() != want {
			t.Fatalf("durable doc %d: got %q want %q", i, d.Text(), want)
		}
		if got := len(d.History()); got != stressOps {
			t.Fatalf("durable op log of doc %d has %d ops, want %d", i, got, stressOps)
		}
	}
}
