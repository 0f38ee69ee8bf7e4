package index_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/index"
	"tendax/internal/lineage"
	"tendax/internal/placement"
	"tendax/internal/search"
	"tendax/internal/util"
	"tendax/internal/workload"
)

func memEngine(t *testing.T) *core.Engine {
	t.Helper()
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	clock := util.NewFakeClock(time.Unix(1_700_000_000, 0).UTC(), time.Second)
	eng, err := core.NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// queries is the rank × shape matrix every equivalence test sweeps.
func queries() []search.Query {
	var qs []search.Query
	for _, rank := range []search.Ranker{search.ByRelevance, search.ByNewest, search.ByMostCited, search.ByMostRead} {
		qs = append(qs,
			search.Query{Terms: []string{"a"}, Rank: rank, Limit: 10},
			search.Query{Terms: []string{"the", "of"}, Rank: rank},
			search.Query{Rank: rank, Limit: 5},
			search.Query{Terms: []string{"a"}, InHeadings: true, Rank: rank},
		)
	}
	return qs
}

// requireSameResults asserts two result lists are byte-identical: same
// order, same metadata, same floating-point scores, same snippets.
func requireSameResults(t *testing.T, label string, want, got []search.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Doc.ID != g.Doc.ID || w.Doc.Name != g.Doc.Name || w.Doc.Creator != g.Doc.Creator ||
			w.Doc.Size != g.Doc.Size || w.Doc.State != g.Doc.State ||
			!w.Doc.Modified.Equal(g.Doc.Modified) ||
			fmt.Sprint(w.Doc.Authors) != fmt.Sprint(g.Doc.Authors) {
			t.Fatalf("%s: result %d metadata drift:\n got %+v\nwant %+v", label, i, g.Doc, w.Doc)
		}
		if w.Score != g.Score {
			t.Fatalf("%s: result %d (doc %v) score %v, want %v", label, i, w.Doc.ID, g.Score, w.Score)
		}
		if w.Snippet != g.Snippet {
			t.Fatalf("%s: result %d snippet %q, want %q", label, i, g.Snippet, w.Snippet)
		}
	}
}

// requireSameGraph asserts two provenance graphs agree node-for-node and
// edge-for-edge (char counts and first/last paste times included).
func requireSameGraph(t *testing.T, label string, want, got *lineage.Graph) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for id, wn := range want.Nodes {
		gn := got.Nodes[id]
		if gn == nil || gn.Name != wn.Name || gn.External != wn.External {
			t.Fatalf("%s: node %v drift: got %+v want %+v", label, id, gn, wn)
		}
	}
	if len(want.Edges) != len(got.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
	}
	for k, we := range want.Edges {
		ge := got.Edges[k]
		if ge == nil || ge.Chars != we.Chars ||
			!ge.FirstAt.Equal(we.FirstAt) || !ge.LastAt.Equal(we.LastAt) {
			t.Fatalf("%s: edge %v drift: got %+v want %+v", label, k, ge, we)
		}
	}
}

// TestServiceMatchesRebuild is the core inversion property on one engine:
// an indexer that FOLLOWED the op stream from before the first document
// existed answers byte-identically to the rescan oracles
// run over the finished corpus — and to a second indexer that PRIMED from
// snapshots after the fact.
func TestServiceMatchesRebuild(t *testing.T) {
	eng := memEngine(t)

	// Live service first: everything below reaches it as events.
	live, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	docs, _, err := workload.BuildPasteChains(eng, workload.PasteChainSpec{
		Depth: 3, FanOut: 2, ChunkLen: 16, Externals: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise every event class the folder handles: text edits, deletes,
	// headings (InHeadings queries), reads (most-read), workflow states
	// (metadata), and a late document.
	root := docs[0]
	if _, err := root.InsertText("alice", 0, "the architecture of a database editor "); err != nil {
		t.Fatal(err)
	}
	if _, err := root.DeleteRange("alice", 4, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := root.SetHeading("alice", 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := root.RecordRead("bob"); err != nil {
		t.Fatal(err)
	}
	if err := root.SetState("alice", "final"); err != nil {
		t.Fatal(err)
	}
	late, err := eng.CreateDocument("carol", "late arrival")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.InsertText("carol", 0, "a document born after the indexer"); err != nil {
		t.Fatal(err)
	}
	clip, err := root.Copy("carol", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.Paste("carol", 0, clip); err != nil {
		t.Fatal(err)
	}
	// A paste inside a multi-op batch: its lineage edge (late → root, the
	// only one) reaches the fold through the batch item, not the event.
	back, err := late.Copy("carol", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Apply("carol", []core.EditOp{
		{Kind: core.EditInsert, Pos: 0, Text: back.Text, SrcDoc: back.SrcDoc, SrcChars: back.SrcChars},
		{Kind: core.EditDelete, Pos: 10, N: 2},
	}); err != nil {
		t.Fatal(err)
	}
	live.Sync()
	if refs, err := live.Provenance(root.ID(), 0, 4); err != nil || len(refs) != 1 ||
		refs[0].SrcDoc != late.ID() || refs[0].Chars != 4 {
		t.Fatalf("batch paste provenance = %+v, %v", refs, err)
	}
	if got := live.CitationCount(late.ID()); got != 1 {
		t.Fatalf("batch paste folded %d citations of the late document, want 1", got)
	}

	// Oracles over the quiesced corpus.
	oracleIx, err := search.BuildIndex(eng)
	if err != nil {
		t.Fatal(err)
	}
	oracleG, err := lineage.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	primed, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer primed.Close()

	for _, q := range queries() {
		want, err := oracleIx.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := live.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("live rank=%s terms=%v headings=%v", q.Rank, q.Terms, q.InHeadings), want, got)
		got2, err := primed.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("primed rank=%s terms=%v headings=%v", q.Rank, q.Terms, q.InHeadings), want, got2)
	}

	requireSameGraph(t, "live graph", oracleG, live.Graph())
	requireSameGraph(t, "primed graph", oracleG, primed.Graph())
	infos, err := eng.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if w, g := oracleG.CitationCount(in.ID), live.CitationCount(in.ID); w != g {
			t.Fatalf("doc %v: live citations %d, rebuild %d", in.ID, g, w)
		}
		if w, g := oracleG.CitationCount(in.ID), primed.CitationCount(in.ID); w != g {
			t.Fatalf("doc %v: primed citations %d, rebuild %d", in.ID, g, w)
		}
	}

	st := live.Stats()
	if st.Docs != len(infos) {
		t.Fatalf("live tracks %d docs, corpus has %d", st.Docs, len(infos))
	}
	if st.Applied == 0 {
		t.Fatal("live service folded no events")
	}
}

// TestQueryAfterClose pins the lifecycle contract.
func TestQueryAfterClose(t *testing.T) {
	eng := memEngine(t)
	svc, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Query(search.Query{Terms: []string{"x"}}); err == nil {
		t.Fatal("query on a closed service succeeded")
	}
}

// TestClusterEquivalenceUnderStorm is the adversarial form of the
// inversion property: racing multi-writer edits across a multi-shard
// cluster over an 8-event op ring. For the first half of the storm every
// shard's indexer is stalled, so its cursors fall out of the ring and the
// heal re-primes from snapshots; the second half races live folds. After
// quiescing, the long-lived incremental cluster must agree byte-for-byte
// with a from-scratch cluster AND with the per-shard rescan oracles. Run
// under -race.
func TestClusterEquivalenceUnderStorm(t *testing.T) {
	cl, err := placement.Open(placement.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetRetention(8)
	if err := cl.StartIndexers(); err != nil {
		t.Fatal(err)
	}
	if err := cl.StartIndexers(); err != nil { // second start is a no-op
		t.Fatal(err)
	}
	ic := cl.Index()

	const nDocs = 9
	docs := make([]*core.Document, nDocs)
	for i := range docs {
		d, err := cl.CreateDocument(fmt.Sprintf("user%d", i%3), fmt.Sprintf("doc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.InsertText("seed", 0, "the quick brown fox jumps over a lazy database editor "); err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}

	const writers = 6
	const editsPerWriter = 120
	rngs := make([]*rand.Rand, writers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w) + 42))
	}
	errs := make(chan error, 2*writers)
	// storm runs edits [from, to) of every writer concurrently.
	storm := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go writer(&wg, errs, docs, rngs[w], w, from, to)
		}
		wg.Wait()
	}
	stalled := make([]func(), cl.Shards())
	for i := range stalled {
		stalled[i] = ic.Shard(i).Stall()
	}
	storm(0, editsPerWriter/2)
	for _, release := range stalled {
		release()
	}
	storm(editsPerWriter/2, editsPerWriter)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ic.Sync()
	if st := ic.Stats(); st.Full.RingMiss == 0 || st.Heals != st.Full.RingMiss {
		t.Fatalf("the stalled half never outran the ring, or heals and ring misses disagree: %+v", st)
	}

	// From-scratch oracle cluster over the same engines.
	engines := make([]*core.Engine, cl.Shards())
	for i := range engines {
		engines[i] = cl.Shard(i).Engine
	}
	fresh, err := index.OpenCluster(engines, cl.ShardFor)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	for _, q := range queries() {
		want, err := fresh.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ic.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("storm rank=%s terms=%v", q.Rank, q.Terms), want, got)
	}

	// Per-shard: the survivor must also match the rescan oracles.
	for i := 0; i < cl.Shards(); i++ {
		oracle, err := search.BuildIndex(engines[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries() {
			want, err := oracle.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ic.Shard(i).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, fmt.Sprintf("shard %d rank=%s", i, q.Rank), want, got)
		}
		oracleG, err := lineage.Build(engines[i])
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, fmt.Sprintf("shard %d graph", i), oracleG, ic.Shard(i).Graph())
	}
	requireSameGraph(t, "cluster graph", fresh.Graph(), ic.Graph())

	// Citations and provenance chains agree doc-for-doc, char-for-char.
	infos, err := cl.ListDocuments()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if w, g := fresh.CitationCount(in.ID), ic.CitationCount(in.ID); w != g {
			t.Fatalf("doc %v: citations %d, rebuild %d", in.ID, g, w)
		}
		refsW, err := fresh.Provenance(in.ID, 0, in.Size)
		if err != nil {
			t.Fatal(err)
		}
		refsG, err := ic.Provenance(in.ID, 0, in.Size)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(refsW) != fmt.Sprint(refsG) {
			t.Fatalf("doc %v: provenance drift:\n got %v\nwant %v", in.ID, refsG, refsW)
		}
	}
}

// writer is one TestClusterEquivalenceUnderStorm writer: edits [from, to)
// of writer w, drawn from rng, on random documents.
func writer(wg *sync.WaitGroup, errs chan<- error, docs []*core.Document, rng *rand.Rand, w, from, to int) {
	defer wg.Done()
	user := fmt.Sprintf("user%d", w)
	for i := from; i < to; i++ {
		d := docs[rng.Intn(len(docs))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // type
			pos := rng.Intn(d.Len() + 1)
			if _, err := d.InsertText(user, pos, fmt.Sprintf("w%d-%d ", w, i)); err != nil {
				errs <- err
				return
			}
		case 5: // delete
			if n := d.Len(); n > 4 {
				if _, err := d.DeleteRange(user, rng.Intn(n-3), 2); err != nil {
					errs <- err
					return
				}
			}
		case 6, 7: // cross-document (often cross-shard) paste
			src := docs[rng.Intn(len(docs))]
			if src == d || src.Len() < 6 {
				continue
			}
			clip, err := src.Copy(user, rng.Intn(src.Len()-5), 4)
			if err != nil {
				errs <- err
				return
			}
			if _, err := d.Paste(user, rng.Intn(d.Len()+1), clip); err != nil {
				errs <- err
				return
			}
		case 8: // metadata
			if err := d.SetState(user, fmt.Sprintf("rev-%d", i)); err != nil {
				errs <- err
				return
			}
		case 9: // read event
			if _, err := d.RecordRead(user); err != nil {
				errs <- err
				return
			}
		}
	}
}

// TestClusterMostCitedCrossShard pins the global rescoring path: a
// document whose citers all live on OTHER shards must still rank first
// under most-cited, with its score equal to the cross-shard sum.
func TestClusterMostCitedCrossShard(t *testing.T) {
	cl, err := placement.Open(placement.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.StartIndexers(); err != nil {
		t.Fatal(err)
	}
	src, err := cl.CreateDocument("alice", "wellspring")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.InsertText("alice", 0, "canonical text everyone quotes"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d, err := cl.CreateDocument("bob", fmt.Sprintf("citer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clip, err := src.Copy("bob", 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Paste("bob", 0, clip); err != nil {
			t.Fatal(err)
		}
	}
	ic := cl.Index()
	ic.Sync()
	if n := ic.CitationCount(src.ID()); n != 5 {
		t.Fatalf("cross-shard citation count %d, want 5", n)
	}
	res, err := ic.Query(search.Query{Rank: search.ByMostCited, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Doc.ID != src.ID() || res[0].Score != 5 {
		t.Fatalf("most-cited top hit = %+v, want wellspring with score 5", res)
	}
}
