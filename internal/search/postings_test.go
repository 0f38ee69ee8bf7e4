package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tendax/internal/core"
	"tendax/internal/util"
)

// TestPostingsMatchTermsView folds seeded edits of four documents over a
// ten-word vocabulary into an index, each through PatchDoc (the changed
// range) or UpdateDoc (the whole text): inserts, deletes that drop a term's
// last occurrence, and deletes that empty a document. After every step each
// posting list must be sorted by doc with no duplicate doc, no zero
// frequency and no empty list, every posting must equal its entry in the
// per-document terms view and every entry there a posting, and every one-
// and two-term query must answer exactly as the rescan oracle's.
func TestPostingsMatchTermsView(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { postingsModelRun(t, seed) })
	}
}

func postingsModelRun(t *testing.T, seed int64) {
	eng, _ := fixture(t)
	rng := rand.New(rand.NewSource(seed))
	vocab := strings.Fields("ant bee cat dog eel fox gnu hen ibis jay")
	ix := New(eng)
	var docs []*core.Document
	base := map[util.ID]*core.DocSnapshot{} // the text ix reflects, per document
	for i := 0; i < 4; i++ {
		d, err := eng.CreateDocument("alice", fmt.Sprint("doc", i))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
		base[d.ID()] = d.Snapshot()
		ix.UpdateDoc(d.Info(), "", "")
	}
	words := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(" ,."[rng.Intn(3)])
		}
		return b.String()
	}

	emptied, dropped := 0, 0
	for step := 0; step < 150; step++ {
		label := fmt.Sprintf("seed %d step %d", seed, step)
		d := docs[rng.Intn(len(docs))]
		size := d.Len()
		var changed Range
		switch op := rng.Intn(10); {
		case op < 5 || size == 0:
			pos := rng.Intn(size + 1)
			text := words(1 + rng.Intn(4))
			if rng.Intn(3) == 0 { // land inside a word, to join or split tokens
				text = text[:1+rng.Intn(len(text)-1)]
			}
			if _, err := d.InsertText("alice", pos, text); err != nil {
				t.Fatal(err)
			}
			n := len([]rune(text))
			changed = Range{OldStart: pos, OldEnd: pos, NewStart: pos, NewEnd: pos + n}
		case op < 9:
			pos := rng.Intn(size)
			n := 1 + rng.Intn(min(size-pos, 12))
			if _, err := d.DeleteRange("alice", pos, n); err != nil {
				t.Fatal(err)
			}
			changed = Range{OldStart: pos, OldEnd: pos + n, NewStart: pos, NewEnd: pos}
		default:
			if _, err := d.DeleteRange("alice", 0, size); err != nil {
				t.Fatal(err)
			}
			changed = Range{OldStart: 0, OldEnd: size, NewStart: 0, NewEnd: 0}
			emptied++
		}
		before := len(ix.termIDs)
		cur := d.Snapshot()
		if rng.Intn(4) == 0 {
			ix.UpdateDoc(d.Info(), cur.Text(), "")
		} else {
			ix.PatchDoc(d.Info(), base[d.ID()].Tree(), cur.Tree(), []Range{changed})
		}
		base[d.ID()] = cur
		if len(ix.termIDs) < before {
			dropped++
		}
		checkPostings(t, label, ix)
		checkQueries(t, label, eng, ix, vocab)
	}
	if emptied == 0 || dropped == 0 {
		t.Fatalf("seed %d: the run emptied %d documents and dropped %d terms, want both", seed, emptied, dropped)
	}
}

// checkPostings checks the posting lists against the terms view, both
// ways, and the term IDs: every known term names its own list, and every
// other list is empty with its ID free, once.
func checkPostings(t *testing.T, label string, ix *Index) {
	t.Helper()
	entries := 0
	for term, id := range ix.termIDs {
		list := ix.lists[id].docs
		if len(list) == 0 {
			t.Fatalf("%s: term %q has an empty posting list", label, term)
		}
		if got := ix.lists[id].term; got != term {
			t.Fatalf("%s: term %q has ID %d, the list of %q", label, term, id, got)
		}
		for i, p := range list {
			if i > 0 && list[i-1].doc >= p.doc {
				t.Fatalf("%s: term %q postings out of order or duplicated: %v", label, term, list)
			}
			if p.tf <= 0 {
				t.Fatalf("%s: term %q doc %d has tf %d", label, term, p.doc, p.tf)
			}
			if _, ok := ix.terms[p.doc][id]; !ok {
				t.Fatalf("%s: term %q doc %d: a posting of tf %d the terms view lacks", label, term, p.doc, p.tf)
			}
		}
		entries += len(list)
	}
	for _, terms := range ix.terms {
		entries -= len(terms)
	}
	if entries != 0 {
		t.Fatalf("%s: the postings and the terms view differ by %d entries", label, entries)
	}
	free := map[uint32]bool{}
	for _, id := range ix.free {
		if free[id] || ix.lists[id].term != "" || len(ix.lists[id].docs) != 0 {
			t.Fatalf("%s: free ID %d is listed twice or still has a list %+v", label, id, ix.lists[id])
		}
		free[id] = true
	}
	if len(free)+len(ix.termIDs) != len(ix.lists) {
		t.Fatalf("%s: %d lists, %d terms and %d free IDs", label, len(ix.lists), len(ix.termIDs), len(free))
	}
}

// checkQueries asks every term and every pair of terms of the vocabulary of
// the index and of a rescan of the engine, and requires the same ranked
// results, scores to the bit.
func checkQueries(t *testing.T, label string, eng *core.Engine, ix *Index, vocab []string) {
	t.Helper()
	oracle, err := BuildIndex(eng)
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]string
	for i, a := range vocab {
		queries = append(queries, []string{a})
		for _, b := range vocab[i+1:] {
			queries = append(queries, []string{a, b})
		}
	}
	for _, terms := range queries {
		q := Query{Terms: terms}
		want, err := oracle.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %v: %d results, the rescan %d", label, terms, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc.ID != want[i].Doc.ID || got[i].Score != want[i].Score || got[i].Snippet != want[i].Snippet {
				t.Fatalf("%s: %v result %d: %v %v %q, the rescan %v %v %q", label, terms, i,
					got[i].Doc.ID, got[i].Score, got[i].Snippet, want[i].Doc.ID, want[i].Score, want[i].Snippet)
			}
		}
	}
}
