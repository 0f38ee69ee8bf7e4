package folders

import (
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

func fixture(t *testing.T) (*core.Engine, *Store, *util.FakeClock) {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	clock := util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Second)
	eng, err := core.NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(eng)
	if err != nil {
		t.Fatal(err)
	}
	return eng, store, clock
}

func TestPredicateParseRoundTrip(t *testing.T) {
	preds := []Predicate{
		NameContains{"report"},
		CreatorIs{"alice"},
		AuthorIs{"bob"},
		StateIs{"draft"},
		SizeAtLeast{100},
		SizeAtMost{5000},
		CreatedWithin{24 * time.Hour},
		ModifiedWithin{time.Hour},
		ReadBy{"carol", 7 * 24 * time.Hour},
		HasProperty{"project", "tendax"},
		Not{StateIs{"final"}},
		And{CreatorIs{"alice"}, Or{StateIs{"draft"}, SizeAtLeast{10}}},
	}
	for _, p := range preds {
		expr := p.Expr()
		back, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%s): %v", expr, err)
		}
		if back.Expr() != expr {
			t.Fatalf("round trip: %s -> %s", expr, back.Expr())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(unknown-op)",
		"(and",
		"(creator)",
		`(read-by "u")`,
		`(size-min "nan")`,
		`(creator "a") extra`,
		`(created-within "notaduration")`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded", s)
		}
	}
}

func TestDynamicFolderReadByLastWeek(t *testing.T) {
	eng, store, clock := fixture(t)
	d1, _ := eng.CreateDocument("alice", "old-read")
	d1.InsertText("alice", 0, "doc one")
	d2, _ := eng.CreateDocument("alice", "fresh-read")
	d2.InsertText("alice", 0, "doc two")
	d3, _ := eng.CreateDocument("alice", "never-read")
	d3.InsertText("alice", 0, "doc three")

	// carol reads d1, then eight days pass, then she reads d2.
	if err := d1.RecordRead("carol"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * 24 * time.Hour)
	if err := d2.RecordRead("carol"); err != nil {
		t.Fatal(err)
	}

	f, err := store.CreateDynamic("carol", "read this week",
		ReadBy{User: "carol", Within: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := store.Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].ID != d2.ID() {
		t.Fatalf("folder content = %v", docs)
	}
}

func TestDynamicFolderIsFluent(t *testing.T) {
	// The defining property: content changes as soon as metadata changes.
	eng, store, _ := fixture(t)
	d, _ := eng.CreateDocument("alice", "growing")
	d.InsertText("alice", 0, "1234")
	f, _ := store.CreateDynamic("alice", "big docs", SizeAtLeast{10})

	before, after, _, err := store.Freshness(f, func() error {
		_, err := d.InsertText("alice", 4, "5678901234")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 0 {
		t.Fatalf("folder not empty before growth: %v", before)
	}
	if len(after) != 1 || after[0].ID != d.ID() {
		t.Fatalf("folder missed the change: %v", after)
	}
}

func TestDynamicFolderComposite(t *testing.T) {
	eng, store, _ := fixture(t)
	a, _ := eng.CreateDocument("alice", "alpha-report")
	a.InsertText("alice", 0, "content of the alpha report")
	b, _ := eng.CreateDocument("bob", "beta-report")
	b.InsertText("bob", 0, "content")
	c, _ := eng.CreateDocument("alice", "misc-notes")
	c.InsertText("alice", 0, "notes")

	pred := And{
		NameContains{"report"},
		CreatorIs{"alice"},
	}
	docs, err := store.EvalPredicate(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].ID != a.ID() {
		t.Fatalf("composite eval = %v", docs)
	}
}

func TestDynamicFolderProps(t *testing.T) {
	eng, store, _ := fixture(t)
	d, _ := eng.CreateDocument("alice", "tagged")
	d.InsertText("alice", 0, "x")
	d.SetProperty("alice", "project", "tendax")
	e2, _ := eng.CreateDocument("alice", "untagged")
	e2.InsertText("alice", 0, "x")

	docs, err := store.EvalPredicate(HasProperty{"project", "tendax"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].ID != d.ID() {
		t.Fatalf("prop eval = %v", docs)
	}
}

func TestStoredFoldersPersistAndReload(t *testing.T) {
	eng, store, _ := fixture(t)
	pred := And{StateIs{"draft"}, SizeAtLeast{1}}
	if _, err := store.CreateDynamic("alice", "drafts", pred); err != nil {
		t.Fatal(err)
	}
	// Fresh store over the same engine reloads the folder by parsing the
	// stored expression.
	store2, err := NewStore(eng)
	if err != nil {
		t.Fatal(err)
	}
	folders, err := store2.DynamicFolders("alice")
	if err != nil || len(folders) != 1 {
		t.Fatalf("reloaded folders = %v, %v", folders, err)
	}
	if folders[0].Pred.Expr() != pred.Expr() {
		t.Fatalf("predicate mangled: %s", folders[0].Pred.Expr())
	}
	d, _ := eng.CreateDocument("x", "draft doc")
	d.InsertText("x", 0, "body")
	docs, err := store2.Eval(folders[0])
	if err != nil || len(docs) != 1 {
		t.Fatalf("Eval = %v, %v", docs, err)
	}
}

func TestStaticFolders(t *testing.T) {
	eng, store, _ := fixture(t)
	root, err := store.CreateStatic("alice", "projects", util.NilID)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := store.CreateStatic("alice", "tendax", root.ID)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := eng.CreateDocument("alice", "doc")
	d.InsertText("alice", 0, "x")

	if err := store.Place(sub.ID, d.ID()); err != nil {
		t.Fatal(err)
	}
	if err := store.Place(sub.ID, d.ID()); err != nil { // idempotent
		t.Fatal(err)
	}
	docs, err := store.Contents(sub.ID)
	if err != nil || len(docs) != 1 || docs[0].ID != d.ID() {
		t.Fatalf("Contents = %v, %v", docs, err)
	}
	fs, err := store.FoldersOf(d.ID())
	if err != nil || len(fs) != 1 || fs[0].ID != sub.ID || fs[0].Parent != root.ID {
		t.Fatalf("FoldersOf = %v, %v", fs, err)
	}
	if err := store.Remove(sub.ID, d.ID()); err != nil {
		t.Fatal(err)
	}
	docs, _ = store.Contents(sub.ID)
	if len(docs) != 0 {
		t.Fatal("document survived removal from folder")
	}
	if err := store.Place(util.ID(424242), d.ID()); err != ErrFolderNotFound {
		t.Fatalf("place into missing folder: %v", err)
	}
}
