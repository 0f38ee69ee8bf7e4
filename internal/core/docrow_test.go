package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// TestDocInfoSurvivesReopen: a document's metadata is derived the same
// way before and after a restart, and before anything opens the document
// again. The first run ends on a state change, then a copy, which must not
// move Modified. And an author none of whose characters is visible — bob
// typed one and deleted it — is still an author after the restart, so
// their next edit must not append their name to the docs row's authors
// column a second time.
func TestDocInfoSurvivesReopen(t *testing.T) {
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
	check := func(when string, d *Document) {
		t.Helper()
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
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
	if err := d.SetState("carol", "review"); err != nil {
		t.Fatal(err)
	}
	changed := d.Info()
	if changed.LastAuthor != "carol" || changed.State != "review" || !changed.Modified.After(changed.Created) {
		t.Fatalf("after SetState: %+v, want carol's review as the newest change", changed)
	}
	if _, err := d.Copy("dave", 0, 5); err != nil {
		t.Fatal(err)
	}
	want := d.Info()
	if diff := infoDiff(changed, want); diff != "" {
		t.Fatalf("a copy changed the metadata: %s", diff)
	}
	check("before the restart", d)
	id := d.ID()
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	for _, read := range []struct {
		name string
		info func(e *Engine) (DocInfo, error)
	}{
		{"DocInfoByID", func(e *Engine) (DocInfo, error) { return e.DocInfoByID(id) }},
		{"ListDocuments", func(e *Engine) (DocInfo, error) {
			infos, err := e.ListDocuments()
			if err == nil && len(infos) != 1 {
				err = fmt.Errorf("%d documents listed, want 1", len(infos))
			}
			if err != nil {
				return DocInfo{}, err
			}
			return infos[0], nil
		}},
	} {
		database, e = open()
		got, err := read.info(e)
		if err != nil {
			t.Fatalf("%s after the restart: %v", read.name, err)
		}
		if diff := infoDiff(want, got); diff != "" {
			t.Fatalf("%s after the restart: %s", read.name, diff)
		}
		if err := database.Close(); err != nil {
			t.Fatal(err)
		}
	}

	database, e = open()
	defer database.Close()
	if d, err = e.OpenDocument(id); err != nil {
		t.Fatal(err)
	}
	check("after the restart", d)
	if _, err := d.InsertText("bob", 5, "?"); err != nil {
		t.Fatal(err)
	}
	check("after bob's next edit", d)
	if got := d.Info().Authors; !slices.Equal(got, []string{"alice", "bob"}) {
		t.Fatalf("authors after bob's next edit: %v, want [alice bob]", got)
	}
}

// TestDocRowCacheMatchesTable checks the docs row a Document keeps against
// the table after every kind of mutation, that only a new author or a
// state change writes the row, and that a batch whose transaction aborts
// once the row is written hands the row back.
func TestDocRowCacheMatchesTable(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "cache")
	if err != nil {
		t.Fatal(err)
	}
	check := func(after string) db.Row {
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
		return stored
	}
	stored := check("CreateDocument")

	// writes is whether the step changes the row: a new author or a state
	// change does; an edit by a listed author does not.
	steps := []struct {
		name   string
		writes bool
		do     func() error
	}{
		{"typing", false, func() error { _, err := d.InsertText("alice", 0, "hello world"); return err }},
		{"a new author's batch", true, func() error {
			_, err := d.Apply("bob", []EditOp{{Kind: EditInsert, Pos: 5, Text: ","}, {Kind: EditDelete, Pos: 0, N: 1}})
			return err
		}},
		{"SetState", true, func() error { return d.SetState("alice", "review") }},
		{"layout", false, func() error { _, err := d.ApplyLayout("alice", 0, 4, SpanBold, "true"); return err }},
		{"note", true, func() error { _, err := insertNote(d, "carol", 2, "check"); return err }},
		{"RemoveSpan", false, func() error {
			spans, err := d.Spans()
			if err != nil {
				return err
			}
			return d.removeSpan("alice", spans[0].ID)
		}},
		{"undo", false, func() error { _, err := d.UndoLocal("bob"); return err }},
		{"redo", false, func() error { _, err := d.RedoLocal("bob"); return err }},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		prev := stored
		stored = check(s.name)
		if wrote := !reflect.DeepEqual(prev, stored); wrote != s.writes {
			t.Fatalf("%s: docs row written %v, want %v (row %v, was %v)", s.name, wrote, s.writes, stored, prev)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}

	// A batch by a new author whose transaction fails after the docs row is
	// written: the abort must hand back the row the table still holds.
	injected := errors.New("injected failure")
	err = func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		st := &batchState{}
		st.user, st.now = "dave", e.clock.Now()
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

// TestCreateRacingList: ListDocuments opens every document it lists, so it
// can open one whose row has committed before CreateDocument has cached
// its handle. The engine must still hold one handle per document: every
// open returns the handle CreateDocument returned.
func TestCreateRacingList(t *testing.T) {
	e := newEngine(t)
	stop := make(chan struct{})
	seen := make(chan map[util.ID]*Document)
	go func() {
		handles := map[util.ID]*Document{}
		defer func() { seen <- handles }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			infos, err := e.ListDocuments()
			if err != nil {
				t.Error(err)
				return
			}
			for _, info := range infos {
				if d, err := e.OpenDocument(info.ID); err != nil {
					t.Error(err)
					return
				} else if handles[info.ID] == nil {
					handles[info.ID] = d
				}
			}
		}
	}()
	created := map[util.ID]*Document{}
	for i := 0; i < 500; i++ {
		d, err := e.CreateDocument("alice", fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		created[d.ID()] = d
	}
	close(stop)
	for id, d := range <-seen {
		if d != created[id] {
			t.Fatalf("document %v: an open during CreateDocument returned %p, CreateDocument %p", id, d, created[id])
		}
	}
}
