package lineage

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/util"
)

func fixture(t *testing.T) *core.Engine {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	eng, err := core.NewEngine(database, util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestGraphFromPasteChain(t *testing.T) {
	eng := fixture(t)
	a, _ := eng.CreateDocument("alice", "origin")
	a.InsertText("alice", 0, "original insight worth copying")
	b, _ := eng.CreateDocument("bob", "survey")
	clip, err := a.Copy("bob", 0, 8) // "original"
	if err != nil {
		t.Fatal(err)
	}
	b.InsertText("bob", 0, "see: ")
	if _, err := b.Paste("bob", 5, clip); err != nil {
		t.Fatal(err)
	}
	c, _ := eng.CreateDocument("carol", "thesis")
	clip2, _ := b.Copy("carol", 5, 8)
	if _, err := c.Paste("carol", 0, clip2); err != nil {
		t.Fatal(err)
	}

	g, err := Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("%d edges, want 2", len(g.Edges))
	}
	ab := g.Edges[[2]util.ID{a.ID(), b.ID()}]
	if ab == nil || ab.Chars != 8 {
		t.Fatalf("a->b edge = %+v", ab)
	}
	bc := g.Edges[[2]util.ID{b.ID(), c.ID()}]
	if bc == nil || bc.Chars != 8 {
		t.Fatalf("b->c edge = %+v", bc)
	}
	if g.CitationCount(a.ID()) != 1 || g.CitationCount(b.ID()) != 1 || g.CitationCount(c.ID()) != 0 {
		t.Fatal("citation counts wrong")
	}
	srcs := g.TransitiveSources(c.ID())
	if len(srcs) != 2 {
		t.Fatalf("transitive sources of c = %v", srcs)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestExternalSourceInGraph(t *testing.T) {
	eng := fixture(t)
	ext, _ := eng.CreateExternalSource("https://example.org/rfc")
	d, _ := eng.CreateDocument("alice", "notes")
	if _, err := d.Paste("alice", 0, core.Clipboard{Text: "quoted text", SrcDoc: ext}); err != nil {
		t.Fatal(err)
	}
	g, err := Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes[ext]
	if n == nil || !n.External {
		t.Fatalf("external node = %+v", n)
	}
	e := g.Edges[[2]util.ID{ext, d.ID()}]
	if e == nil || e.Chars != len("quoted text") {
		t.Fatalf("external edge = %+v", e)
	}
	dot := g.DOT()
	if !strings.Contains(dot, "style=dashed") {
		t.Fatal("DOT does not mark external sources")
	}
	if !strings.Contains(dot, "11 chars") {
		t.Fatalf("DOT missing edge label:\n%s", dot)
	}
}

func TestProvenanceOfRange(t *testing.T) {
	eng := fixture(t)
	src, _ := eng.CreateDocument("alice", "src")
	src.InsertText("alice", 0, "ABCDEFGH")
	dst, _ := eng.CreateDocument("bob", "dst")
	dst.InsertText("bob", 0, "xx")
	clip, _ := src.Copy("bob", 2, 3) // CDE
	dst.Paste("bob", 1, clip)        // x CDE x

	refs, err := ProvenanceOfRange(eng, dst.ID(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("refs = %+v", refs)
	}
	if !refs[0].SrcDoc.IsNil() || refs[0].Chars != 1 {
		t.Fatalf("ref0 = %+v", refs[0])
	}
	if refs[1].SrcDoc != src.ID() || refs[1].Chars != 3 || refs[1].SrcName != "src" {
		t.Fatalf("ref1 = %+v", refs[1])
	}
	if !refs[2].SrcDoc.IsNil() {
		t.Fatalf("ref2 = %+v", refs[2])
	}
}

func TestProvenanceChainTransitive(t *testing.T) {
	eng := fixture(t)
	a, _ := eng.CreateDocument("alice", "gen0")
	a.InsertText("alice", 0, "X")
	b, _ := eng.CreateDocument("bob", "gen1")
	clipA, _ := a.Copy("bob", 0, 1)
	b.Paste("bob", 0, clipA)
	c, _ := eng.CreateDocument("carol", "gen2")
	clipB, _ := b.Copy("carol", 0, 1)
	c.Paste("carol", 0, clipB)

	meta, err := c.CharMetaAt(0)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := provenanceChain(eng, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain length = %d, want 2 (gen1, gen0)", len(chain))
	}
	if chain[0].Author != "bob" || chain[1].Author != "alice" {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestDerivedAndSources(t *testing.T) {
	eng := fixture(t)
	hub, _ := eng.CreateDocument("alice", "hub")
	hub.InsertText("alice", 0, "shared paragraph used by many")
	for _, user := range []string{"u1", "u2", "u3"} {
		d, _ := eng.CreateDocument(user, "derived-"+user)
		clip, _ := hub.Copy(user, 0, 6)
		d.Paste(user, 0, clip)
	}
	g, _ := Build(eng)
	derived := g.derived(hub.ID())
	if len(derived) != 3 {
		t.Fatalf("derived = %v", derived)
	}
	if g.CitationCount(hub.ID()) != 3 {
		t.Fatalf("citations = %d", g.CitationCount(hub.ID()))
	}
	for _, e := range derived {
		srcs := g.Sources(e.To)
		if len(srcs) != 1 || srcs[0].From != hub.ID() {
			t.Fatalf("sources of %v = %v", e.To, srcs)
		}
	}
	render := g.Render()
	if strings.Count(render, "hub") != 3 {
		t.Fatalf("render:\n%s", render)
	}
}

func TestSelfPasteIgnored(t *testing.T) {
	eng := fixture(t)
	d, _ := eng.CreateDocument("alice", "self")
	d.InsertText("alice", 0, "duplicate me")
	clip, _ := d.Copy("alice", 0, 9)
	d.Paste("alice", 12, clip)
	g, _ := Build(eng)
	if len(g.Edges) != 0 {
		t.Fatalf("self-paste produced %d edges", len(g.Edges))
	}
}
