package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// infoDiff describes how two DocInfos differ, or returns "" when they agree
// (instants compared with Equal: a decoded time carries no monotonic
// reading).
func infoDiff(a, b DocInfo) string {
	switch {
	case !slices.Equal(a.Authors, b.Authors):
		return fmt.Sprintf("authors %v vs %v", a.Authors, b.Authors)
	case !a.Created.Equal(b.Created) || !a.Modified.Equal(b.Modified):
		return fmt.Sprintf("created/modified %v/%v vs %v/%v", a.Created, a.Modified, b.Created, b.Modified)
	}
	a.Authors, b.Authors = nil, nil
	a.Created, a.Modified, b.Created, b.Modified = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}

// TestAuthorsColumnSurvivesReopen: an author none of whose characters is
// visible — bob typed one and deleted it — is still an author after a
// restart, so their next edit must not append their name to the docs row's
// authors column a second time. The handle and the row must agree
// throughout.
func TestAuthorsColumnSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	clock := util.NewFakeClock(time.Unix(3_000_000, 0).UTC(), time.Millisecond)
	open := func() (*db.Database, *Engine) {
		database, err := db.Open(db.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(database, clock)
		if err != nil {
			t.Fatal(err)
		}
		return database, e
	}
	agree := func(when string, e *Engine, d *Document) {
		t.Helper()
		row, err := e.DocInfoByID(d.ID())
		if err != nil {
			t.Fatal(err)
		}
		if diff := infoDiff(d.Info(), row); diff != "" {
			t.Fatalf("%s: Info and DocInfoByID disagree: %s", when, diff)
		}
	}

	database, e := open()
	d, err := e.CreateDocument("alice", "authors")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("bob", 5, "!"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteRange("bob", 5, 1); err != nil {
		t.Fatal(err)
	}
	agree("before the reopen", e, d)
	id := d.ID()
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	database, e = open()
	defer database.Close()
	if d, err = e.OpenDocument(id); err != nil {
		t.Fatal(err)
	}
	agree("after the reopen", e, d)
	if _, err := d.InsertText("bob", 5, "?"); err != nil {
		t.Fatal(err)
	}
	agree("after bob's next edit", e, d)
	if got := d.Info().Authors; !slices.Equal(got, []string{"alice", "bob"}) {
		t.Fatalf("authors after bob's next edit: %v, want [alice bob]", got)
	}
}

// TestDocRowCacheMatchesTable checks the docs row a Document keeps against
// the table after every kind of mutation that writes it, and after a batch
// whose transaction aborts once the row is written.
func TestDocRowCacheMatchesTable(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "cache")
	if err != nil {
		t.Fatal(err)
	}
	check := func(after string) {
		t.Helper()
		d.mu.Lock()
		cached := d.row
		d.mu.Unlock()
		stored, _, err := e.tDocs.GetByPK(nil, int64(d.ID()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range stored {
			want, got := stored[i], cached[i]
			if w, ok := want.(time.Time); ok {
				if g, ok := got.(time.Time); ok && g.Equal(w) {
					continue
				}
			} else if reflect.DeepEqual(got, want) {
				continue
			}
			t.Fatalf("after %s: cached docs row column %q = %v, table has %v",
				after, docsSchema[i].Name, got, want)
		}
	}
	check("CreateDocument")

	steps := []struct {
		name string
		do   func() error
	}{
		{"typing", func() error { _, err := d.InsertText("alice", 0, "hello world"); return err }},
		{"a new author's batch", func() error {
			_, err := d.Apply("bob", []EditOp{{Kind: EditInsert, Pos: 5, Text: ","}, {Kind: EditDelete, Pos: 0, N: 1}})
			return err
		}},
		{"SetState", func() error { return d.SetState("alice", "review") }},
		{"layout", func() error { _, err := d.ApplyLayout("alice", 0, 4, SpanBold, "true"); return err }},
		{"note", func() error { _, err := d.InsertNote("carol", 2, "check"); return err }},
		{"RemoveSpan", func() error {
			spans, err := d.Spans()
			if err != nil {
				return err
			}
			return d.RemoveSpan("alice", spans[0].ID)
		}},
		{"undo", func() error { _, err := d.UndoLocal("bob"); return err }},
		{"redo", func() error { _, err := d.RedoLocal("bob"); return err }},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check(s.name)
	}

	// A batch by a new author whose transaction fails after the docs row is
	// written: the abort must hand back the row the table still holds.
	injected := errors.New("injected failure")
	err = func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		st := &batchState{createdSet: map[util.ID]*texttree.Char{}, updated: map[util.ID]*texttree.Char{}}
		st.user, st.now, st.head = "dave", e.clock.Now(), d.buf.Head()
		if err := d.stageBatchLocked(st, []EditOp{{Kind: EditInsert, Pos: 0, Text: "x"}}); err != nil {
			return err
		}
		_, err := e.withTxnAsync(func(tx *txn.Txn) error {
			if err := d.persistBatchLocked(tx, st); err != nil {
				return err
			}
			return injected
		})
		return err
	}()
	if !errors.Is(err, injected) {
		t.Fatalf("aborted batch: %v, want the injected failure", err)
	}
	check("an aborted batch")
	if authors := d.Info().Authors; slices.Contains(authors, "dave") {
		t.Fatalf("authors after an aborted batch: %v", authors)
	}
}
