package search

import (
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/folders"
	"tendax/internal/util"
)

func fixture(t *testing.T) (*core.Engine, *util.FakeClock) {
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
	return eng, clock
}

func corpus(t *testing.T, eng *core.Engine) (a, b, c *core.Document) {
	t.Helper()
	a, _ = eng.CreateDocument("alice", "db-paper")
	a.InsertText("alice", 0, "Native database storage of text documents enables collaborative editing")
	b, _ = eng.CreateDocument("bob", "editor-notes")
	b.InsertText("bob", 0, "The collaborative editor shows live cursors and awareness")
	c, _ = eng.CreateDocument("carol", "cooking")
	c.InsertText("carol", 0, "A recipe for bread with flour and water")
	return a, b, c
}

func TestSearchByContent(t *testing.T) {
	eng, _ := fixture(t)
	a, b, _ := corpus(t, eng)
	ix, err := BuildIndex(eng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ix.Search(Query{Terms: []string{"collaborative"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("hits = %v", rs)
	}
	ids := map[util.ID]bool{rs[0].Doc.ID: true, rs[1].Doc.ID: true}
	if !ids[a.ID()] || !ids[b.ID()] {
		t.Fatal("wrong documents matched")
	}
	// AND semantics.
	rs, _ = ix.Search(Query{Terms: []string{"collaborative", "database"}})
	if len(rs) != 1 || rs[0].Doc.ID != a.ID() {
		t.Fatalf("AND query = %v", rs)
	}
	// Miss.
	rs, _ = ix.Search(Query{Terms: []string{"quantum"}})
	if len(rs) != 0 {
		t.Fatalf("phantom hits = %v", rs)
	}
}

func TestSearchInHeadings(t *testing.T) {
	eng, _ := fixture(t)
	a, _, _ := corpus(t, eng)
	// Mark "Native database" as a heading in a.
	if _, err := a.SetHeading("alice", 0, 15, 1); err != nil {
		t.Fatal(err)
	}
	ix, _ := BuildIndex(eng)
	rs, err := ix.Search(Query{Terms: []string{"database"}, InHeadings: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Doc.ID != a.ID() {
		t.Fatalf("heading search = %v", rs)
	}
	// "editor" only appears in body text, never in headings.
	rs, _ = ix.Search(Query{Terms: []string{"editor"}, InHeadings: true})
	if len(rs) != 0 {
		t.Fatalf("heading search false positive = %v", rs)
	}
}

// TestHeadingTextSkipsSpanNewerThanSnapshot lays a heading over text
// inserted after a snapshot was taken. That snapshot has never seen the
// heading's start, so every reader resolving against it must skip the
// span: HeadingText once resolved the unseen start to position 0 and
// indexed the whole document prefix as a heading.
func TestHeadingTextSkipsSpanNewerThanSnapshot(t *testing.T) {
	eng, _ := fixture(t)
	d, err := eng.CreateDocument("alice", "late-heading")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "old prefix text, TAIL"); err != nil {
		t.Fatal(err)
	}
	old := d.Snapshot()
	if _, err := d.InsertText("alice", 17, "NEW "); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetHeading("alice", 17, 8, 1); err != nil { // "NEW TAIL"
		t.Fatal(err)
	}
	spans, err := d.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if got := HeadingText(old, spans); got != "" {
		t.Fatalf("old snapshot's heading text = %q, want none", got)
	}
	if got := HeadingText(d.Snapshot(), spans); got != "new tail " {
		t.Fatalf("latest heading text = %q, want %q", got, "new tail ")
	}
	if outline, err := old.Outline(); err != nil || len(outline) != 0 {
		t.Fatalf("old snapshot's outline = %+v, %v; want none", outline, err)
	}
	if markup, err := old.RenderMarkup(); err != nil || markup != "old prefix text, TAIL" {
		t.Fatalf("old snapshot's markup = %q, %v; want the plain text", markup, err)
	}
}

func TestRankNewest(t *testing.T) {
	eng, _ := fixture(t)
	a, b, _ := corpus(t, eng)
	// b modified last (corpus inserts in order a, b, c but touch a again).
	b.InsertText("bob", 0, "collaborative ")
	ix, _ := BuildIndex(eng)
	rs, _ := ix.Search(Query{Terms: []string{"collaborative"}, Rank: ByNewest})
	if len(rs) != 2 || rs[0].Doc.ID != b.ID() || rs[1].Doc.ID != a.ID() {
		t.Fatalf("newest ranking = %v", rs)
	}
}

func TestRankMostCited(t *testing.T) {
	eng, _ := fixture(t)
	a, b, _ := corpus(t, eng)
	// Two documents paste from a; one pastes from b.
	for i, user := range []string{"u1", "u2"} {
		d, _ := eng.CreateDocument(user, "cites-a")
		clip, _ := a.Copy(user, 0, 6)
		d.Paste(user, 0, clip)
		_ = i
	}
	d3, _ := eng.CreateDocument("u3", "cites-b")
	clip, _ := b.Copy("u3", 0, 3)
	d3.Paste("u3", 0, clip)

	ix, _ := BuildIndex(eng)
	rs, _ := ix.Search(Query{Terms: []string{"collaborative"}, Rank: ByMostCited})
	if len(rs) != 2 || rs[0].Doc.ID != a.ID() {
		t.Fatalf("most-cited ranking = %v", rs)
	}
	if rs[0].Score != 2 {
		t.Fatalf("citation score = %v", rs[0].Score)
	}
}

func TestRankMostRead(t *testing.T) {
	eng, _ := fixture(t)
	a, b, _ := corpus(t, eng)
	b.RecordRead("x")
	b.RecordRead("y")
	a.RecordRead("z")
	ix, _ := BuildIndex(eng)
	rs, _ := ix.Search(Query{Terms: []string{"collaborative"}, Rank: ByMostRead})
	if len(rs) != 2 || rs[0].Doc.ID != b.ID() {
		t.Fatalf("most-read ranking = %v", rs)
	}
}

func TestMetadataFilter(t *testing.T) {
	eng, _ := fixture(t)
	a, b, _ := corpus(t, eng)
	_ = b
	ix, _ := BuildIndex(eng)
	rs, err := ix.Search(Query{
		Terms:  []string{"collaborative"},
		Filter: folders.CreatorIs{User: "alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Doc.ID != a.ID() {
		t.Fatalf("filtered = %v", rs)
	}
	// Pure metadata query (no terms).
	rs, _ = ix.Search(Query{Filter: folders.CreatorIs{User: "carol"}})
	if len(rs) != 1 || rs[0].Doc.Name != "cooking" {
		t.Fatalf("metadata-only query = %v", rs)
	}
}

func TestRefreshAfterEdit(t *testing.T) {
	eng, _ := fixture(t)
	a, _, _ := corpus(t, eng)
	ix, _ := BuildIndex(eng)
	if rs, _ := ix.Search(Query{Terms: []string{"zanzibar"}}); len(rs) != 0 {
		t.Fatal("phantom pre-edit hit")
	}
	a.InsertText("alice", 0, "zanzibar ")
	if err := ix.indexDoc(a.Info()); err != nil {
		t.Fatal(err)
	}
	rs, _ := ix.Search(Query{Terms: []string{"zanzibar"}})
	if len(rs) != 1 || rs[0].Doc.ID != a.ID() {
		t.Fatalf("post-refresh = %v", rs)
	}
	// Old terms still found exactly once (stale postings dropped).
	rs, _ = ix.Search(Query{Terms: []string{"native"}})
	if len(rs) != 1 {
		t.Fatalf("native hits = %v", rs)
	}
}

func TestLimitAndSnippet(t *testing.T) {
	eng, _ := fixture(t)
	corpus(t, eng)
	ix, _ := BuildIndex(eng)
	rs, _ := ix.Search(Query{Rank: ByNewest, Limit: 2})
	if len(rs) != 2 {
		t.Fatalf("limit ignored: %d results", len(rs))
	}
	if rs[0].Snippet == "" {
		t.Fatal("empty snippet")
	}
	if ix.DocCount() != 3 {
		t.Fatalf("DocCount = %d", ix.DocCount())
	}
}
