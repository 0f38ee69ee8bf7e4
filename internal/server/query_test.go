// The wire-level query surface: OpQuery answered from the incremental
// indexers on every connection, and — the leak-hunt regression —
// ACL-filtered fail-closed so neither search snippets nor provenance runs
// reveal content or source identities a tenant is denied.
package server

import (
	"strings"
	"testing"

	"tendax/internal/client"
	"tendax/internal/core"
	"tendax/internal/protocol"
	"tendax/internal/security"
	"tendax/internal/util"
)

// queryHarness is harnessStore plus running indexers, returning the server
// so tests can quiesce them (srv.cl.Index().Sync()).
func queryHarness(t *testing.T, sec bool) (addr string, eng *core.Engine, store *security.Store, srv *Server) {
	t.Helper()
	addr, eng, store, srv = harnessSrv(t, sec)
	if err := srv.cl.StartIndexers(); err != nil {
		t.Fatal(err)
	}
	return addr, eng, store, srv
}

func TestQueryOverWire(t *testing.T) {
	addr, _, _, srv := queryHarness(t, false)
	c := login(t, addr, "alice", "")
	src, err := c.CreateDocument("sources and methods")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := c.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Insert(0, "database editors store text in tables"); err != nil {
		t.Fatal(err)
	}
	dst, err := c.CreateDocument("survey")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := c.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	const intro, pasted = "a survey of editors ", 8
	if err := dd.Insert(0, intro); err != nil {
		t.Fatal(err)
	}
	clip, err := sd.Copy(0, pasted)
	if err != nil {
		t.Fatal(err)
	}
	// Positions by construction, not dd.Len(): the replica may not have
	// folded the pushes of its own insert and paste yet.
	if err := dd.Paste(len(intro), clip); err != nil {
		t.Fatal(err)
	}
	srv.cl.Index().Sync()

	hits, err := c.Search(client.SearchQuery{Terms: []string{"editors"}, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("search 'editors' returned %d hits: %+v", len(hits), hits)
	}
	for _, h := range hits {
		if h.Snippet == "" || h.Score <= 0 {
			t.Fatalf("hit missing snippet/score: %+v", h)
		}
	}
	if hits, err = c.Search(client.SearchQuery{Terms: []string{"editors"}, Limit: 1}); err != nil || len(hits) != 1 {
		t.Fatalf("limit not applied: %d hits, err %v", len(hits), err)
	}
	if hits, err = c.Search(client.SearchQuery{Terms: []string{"xylophone"}}); err != nil || len(hits) != 0 {
		t.Fatalf("no-match query: %d hits, err %v", len(hits), err)
	}

	refs, err := c.Provenance(dst, 0, len(intro)+pasted)
	if err != nil {
		t.Fatal(err)
	}
	var sawPaste bool
	for _, r := range refs {
		if r.SrcDoc == src {
			sawPaste = true
			if r.SrcName != "sources and methods" || r.Chars != pasted {
				t.Fatalf("pasted run misdescribed: %+v", r)
			}
		}
	}
	if !sawPaste {
		t.Fatalf("provenance lost the paste: %+v", refs)
	}
}

// TestQueryWithoutIndexersUnsupported pins the typed rejection of a
// query the server cannot serve: without indexers a raw wire peer gets
// code=unsupported, and the library client an error.
func TestQueryWithoutIndexersUnsupported(t *testing.T) {
	addr, _ := harness(t, false)
	q := &protocol.QueryReq{Kind: protocol.QuerySearch, Terms: []string{"x"}}
	w := wireAt(t, addr, "u", "")
	if resp := w.callErr(&protocol.Message{Op: protocol.OpQuery, Query: q}); resp.Err == "" || resp.Code != protocol.ErrUnsupported {
		t.Fatalf("query without indexers: err=%q code=%q", resp.Err, resp.Code)
	}
	c := login(t, addr, "u", "")
	if _, err := c.Search(client.SearchQuery{Terms: []string{"x"}}); err == nil {
		t.Fatal("query served with indexers disabled")
	}
}

// TestCrossTenantQueryLeakHunt is the leak-hunt regression for the query
// surface: search and provenance answers are computed from a tenant-blind
// index holding unredacted text, so every path out must fail closed.
//
//   - a document bob is doc-level denied must vanish from his results
//     entirely (not appear with a masked snippet — its existence is part
//     of what the denial hides);
//   - a range deny must mask his snippets character-for-character;
//   - provenance runs over his denied ranges must be clipped, and runs
//     sourced FROM a document he cannot read must not name it;
//   - alice, unrestricted, keeps plaintext on every one of those paths.
func TestCrossTenantQueryLeakHunt(t *testing.T) {
	addr, eng, store, srv := queryHarness(t, true)

	alice := login(t, addr, "alice", "pw-a")

	// Secret doc: closed to everyone but alice (a grant to alice flips the
	// document to closed-by-rule; bob has no rule, so he is denied).
	secretID, err := alice.CreateDocument("black-site-ledger")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := alice.Open(secretID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.Insert(0, "classified payload inside"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Grant("alice", util.ID(secretID), security.UserPrefix+"alice", core.RRead); err != nil {
		t.Fatal(err)
	}

	// Wiki: readable by all, but "SECRET" is range-denied to bob, and its
	// tail was pasted from the secret doc (provenance crosses the wall).
	wikiID, err := alice.CreateDocument("wiki")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := alice.Open(wikiID)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.Insert(0, "public SECRET public "); err != nil {
		t.Fatal(err)
	}
	clip, err := sd.Copy(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The end of the text by construction, not wd.Len(): the replica may not
	// have folded the insert's own push yet.
	if err := wd.Paste(len("public SECRET public "), clip); err != nil {
		t.Fatal(err)
	}
	d, err := eng.OpenDocument(util.ID(wikiID))
	if err != nil {
		t.Fatal(err)
	}
	metas, err := d.RangeMeta(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.DenyRange("alice", d.ID(), security.UserPrefix+"bob",
		core.RRead, metas[0].ID, metas[len(metas)-1].ID); err != nil {
		t.Fatal(err)
	}
	// The pasted tail (positions 21..31, "classified") is denied too: its
	// content came over the wall, so bob must not even learn the wiki
	// matches a search for it.
	tail, err := d.RangeMeta(21, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.DenyRange("alice", d.ID(), security.UserPrefix+"bob",
		core.RRead, tail[0].ID, tail[len(tail)-1].ID); err != nil {
		t.Fatal(err)
	}
	srv.cl.Index().Sync()

	bobs := map[string]*client.Client{"bob": login(t, addr, "bob", "pw-b")}

	for name, bob := range bobs {
		// 1. Doc-level denial: the secret document vanishes from results.
		hits, err := bob.Search(client.SearchQuery{Terms: []string{"classified"}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(hits) != 0 {
			t.Fatalf("%s: denied document surfaced in search: %+v", name, hits)
		}
		// ...including rank-only queries with no terms at all.
		hits, err = bob.Search(client.SearchQuery{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, h := range hits {
			if h.Doc.ID == secretID {
				t.Fatalf("%s: denied document listed by rank-only query: %+v", name, h)
			}
		}

		// 2. Range denial: the wiki hit's snippet is masked, never leaked.
		hits, err = bob.Search(client.SearchQuery{Terms: []string{"public"}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(hits) != 1 || hits[0].Doc.ID != wikiID {
			t.Fatalf("%s: wiki search = %+v", name, hits)
		}
		snip := hits[0].Snippet
		if strings.Contains(snip, "SECRET") || strings.Contains(snip, "classified") {
			t.Fatalf("%s: snippet leaks denied text: %q", name, snip)
		}
		if !strings.ContainsRune(snip, MaskRune) {
			t.Fatalf("%s: snippet not masked at all: %q", name, snip)
		}

		// 3. Provenance: denied positions clipped, denied source anonymous.
		refs, err := bob.Provenance(wikiID, 0, 31)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range refs {
			if r.SrcName == "black-site-ledger" || r.SrcDoc == secretID {
				t.Fatalf("%s: provenance names a denied source: %+v", name, r)
			}
			for p := r.From; p < r.To; p++ {
				if p >= 7 && p < 13 {
					t.Fatalf("%s: provenance covers denied position %d: %+v", name, p, r)
				}
			}
		}

		// 4. Asking for the denied document's provenance directly fails.
		if _, err := bob.Provenance(secretID, 0, 10); err == nil {
			t.Fatalf("%s: provenance served for a doc-level-denied document", name)
		}
	}

	// Unrestricted alice keeps plaintext everywhere.
	hits, err := alice.Search(client.SearchQuery{Terms: []string{"classified"}})
	if err != nil {
		t.Fatal(err)
	}
	var secretHit *protocol.SearchHit
	for i := range hits {
		if hits[i].Doc.ID == secretID {
			secretHit = &hits[i]
		}
	}
	if secretHit == nil {
		t.Fatalf("owner lost her own document: %+v", hits)
	}
	if !strings.Contains(secretHit.Snippet, "classified payload") {
		t.Fatalf("owner snippet over-masked: %q", secretHit.Snippet)
	}
	refs, err := alice.Provenance(wikiID, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	var named bool
	for _, r := range refs {
		if r.SrcDoc == secretID && r.SrcName == "black-site-ledger" {
			named = true
		}
	}
	if !named {
		t.Fatalf("owner provenance lost the source identity: %+v", refs)
	}
}
