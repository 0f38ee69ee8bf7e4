package index_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"tendax/internal/core"
	"tendax/internal/db"
	"tendax/internal/index"
	"tendax/internal/lineage"
	"tendax/internal/mining"
	"tendax/internal/search"
	"tendax/internal/util"
)

// alphabet mixes what the tokenizer must tell apart: ASCII and multi-byte
// letters (some with a distinct lower case), ASCII and non-ASCII digits,
// and separators from one to four bytes wide.
var alphabet = []rune("abcdeABxyz019éÉßЖж日本٣७ \n.,-—🙂")

func randText(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			sb.WriteRune(' ') // keep tokens short enough to split and join often
		} else {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
	}
	return sb.String()
}

// requireMatchesRebuild compares everything the service derives against
// the from-scratch oracles. Every term any document ever held is queried
// by content and by heading, so a posting that should have been erased
// shows up as surely as one that was never added; relevance scores carry
// tf, df, lengths and the corpus token total; results carry snippets and
// metadata.
func requireMatchesRebuild(t *testing.T, label string, eng *core.Engine, svc *index.Service, vocab map[string]bool) {
	t.Helper()
	svc.Sync()
	oracle, err := search.BuildIndex(eng)
	if err != nil {
		t.Fatal(err)
	}
	check := func(q search.Query) {
		t.Helper()
		want, err := oracle.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("%s: terms=%q headings=%v rank=%s", label, q.Terms, q.InHeadings, q.Rank), want, got)
	}
	for term := range vocab {
		check(search.Query{Terms: []string{term}})
		check(search.Query{Terms: []string{term}, InHeadings: true})
	}
	check(search.Query{Rank: search.ByNewest})
	check(search.Query{Rank: search.ByMostCited})

	oracleG, err := lineage.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, label, oracleG, svc.Graph())
	for id := range oracleG.Nodes {
		if w, g := oracleG.CitationCount(id), svc.CitationCount(id); w != g {
			t.Fatalf("%s: doc %v: citations %d, rebuild %d", label, id, g, w)
		}
	}
}

// TestDeltaFoldMatchesRebuild drives seeded random edit streams through a
// service whose per-keystroke work is the changed-range fold, and after
// every step requires it to equal the from-scratch rebuild. The streams
// split, join, create and erase tokens over a multi-script alphabet, edit
// inside the snippet and inside heading spans, move two cursors in one
// batch, undo and redo, compact, paste across documents, and — with the
// indexer stalled over a 16-event ring — fall behind both within and
// beyond what the ring retains. Exactly the steps that outrun the ring
// re-prime, once each.
func TestDeltaFoldMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { deltaFoldRun(t, seed) })
	}
}

func deltaFoldRun(t *testing.T, seed int64) {
	eng := memEngine(t)
	eng.Bus().SetRetention(16)
	svc, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewSource(seed))

	var docs []*core.Document
	for i := 0; i < 3; i++ {
		d, err := eng.CreateDocument("seed", fmt.Sprintf("doc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// 60 to 180 runes: around the 80-rune snippet on both sides.
		if _, err := d.InsertText("seed", 0, randText(rng, 60+60*i)); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	vocab := map[string]bool{"absent": true}
	learn := func() {
		for _, d := range docs {
			for _, tok := range mining.Tokenize(d.Text()) {
				vocab[tok] = true
			}
		}
	}
	// Compaction archives tombstones out of the chars table, which is what
	// lineage.Build scans: keep the horizon before the first paste so the
	// oracle never loses a pasted instance.
	var pasteHorizon time.Time
	users := []string{"ann", "bob"}
	must := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, core.ErrNothingToUndo) && !errors.Is(err, core.ErrNothingToRedo) {
			t.Fatal(err)
		}
	}
	// typeKeys publishes n single-key events on d.
	typeKeys := func(d *core.Document, n int) {
		for k := 0; k < n; k++ {
			_, err := d.InsertText(users[k%2], rng.Intn(d.Len()+1), randText(rng, 1))
			must(err)
		}
	}

	const steps = 160
	var ringMisses int64
	for step := 0; step < steps; step++ {
		d := docs[rng.Intn(2)] // docs[2] stays a paste source
		user := users[rng.Intn(2)]
		label := fmt.Sprintf("seed %d step %d", seed, step)
		op := rng.Intn(16)
		switch {
		case op < 4: // type, a third of the time inside the snippet
			pos := rng.Intn(d.Len() + 1)
			if rng.Intn(3) == 0 && pos > 80 {
				pos = rng.Intn(81)
			}
			_, err := d.InsertText(user, pos, randText(rng, 1+rng.Intn(5)))
			must(err)
		case op < 7: // delete
			if l := d.Len(); l > 8 {
				n := 1 + rng.Intn(5)
				_, err := d.DeleteRange(user, rng.Intn(l-n), n)
				must(err)
			}
		case op < 9: // two cursors and a delete in one transaction: one event, several ranges
			l := d.Len()
			if l < 20 {
				continue
			}
			a, b := rng.Intn(l/2), l/2+rng.Intn(l/2)
			_, err := d.Apply(user, []core.EditOp{
				{Kind: core.EditInsert, Pos: a, Text: randText(rng, 1+rng.Intn(3))},
				{Kind: core.EditInsert, Pos: b, Text: randText(rng, 1+rng.Intn(3))},
				{Kind: core.EditDelete, Pos: rng.Intn(l - 2), N: 2},
			})
			must(err)
		case op == 9: // heading over a random range, now and then retracted
			if l := d.Len(); l > 12 {
				pos := rng.Intn(l - 10)
				id, err := d.SetHeading(user, pos, 2+rng.Intn(8), 1)
				must(err)
				if rng.Intn(3) == 0 {
					must(d.RemoveSpan(user, id))
				}
			}
		case op == 10: // type inside a heading span, if there is one
			spans, err := d.Spans()
			must(err)
			for _, sp := range spans {
				if sp.Kind == core.SpanHeading {
					from, to := d.SpanRange(sp)
					_, err := d.InsertText(user, from+rng.Intn(to-from+1), randText(rng, 2))
					must(err)
					break
				}
			}
		case op == 11:
			if rng.Intn(2) == 0 {
				_, err := d.UndoLocal(user)
				must(err)
			} else {
				_, err := d.RedoLocal(user)
				must(err)
			}
		case op == 12:
			horizon := eng.Clock().Now()
			if !pasteHorizon.IsZero() {
				horizon = pasteHorizon
			}
			_, err := d.Compact(horizon)
			must(err)
		case op == 13: // paste from the source document, and a note for the EvNote path
			if pasteHorizon.IsZero() {
				pasteHorizon = eng.Clock().Now()
			}
			src := docs[2]
			clip, err := src.Copy(user, rng.Intn(src.Len()-6), 1+rng.Intn(6))
			must(err)
			_, err = d.Paste(user, rng.Intn(d.Len()+1), clip)
			must(err)
			_, err = d.InsertNote(user, rng.Intn(d.Len()), "n")
			must(err)
		case op == 14: // fall behind by 5..12 events: the 16-event ring still holds them all
			release := svc.Stall()
			typeKeys(d, 5+rng.Intn(8))
			release()
		case op == 15:
			if rng.Intn(2) == 0 { // fall behind by 20..27: a ring miss, the heal re-primes
				release := svc.Stall()
				typeKeys(d, 20+rng.Intn(8))
				release()
				ringMisses++
			} else { // an answer is needed while the events are still unread
				release := svc.Stall()
				typeKeys(d, 2)
				svc.RefreshStalled(d.ID())
				release()
			}
		}
		learn()
		requireMatchesRebuild(t, label, eng, svc, vocab)
	}

	st := svc.Stats()
	if st.Delta == 0 || st.Full.Prime != 3 || st.Full.SeqAhead == 0 || ringMisses == 0 {
		t.Fatalf("a refresh path went unexercised: %+v", st)
	}
	if st.Full.RingMiss != ringMisses || st.Heals != st.Full.RingMiss {
		t.Fatalf("%d steps outran the ring, stats %+v: want that many ring misses, each one heal", ringMisses, st)
	}
	if st.Delta < 3*(st.Full.RingMiss+st.Full.SeqAhead) {
		t.Fatalf("the changed-range path is not the common one: %+v", st)
	}
}

// TestSnippetFollowsLengthAcrossItsEdge pins the one way an edit beyond
// the snippet's runes still changes it: the document growing past, or
// shrinking back to, exactly the snippet length adds or drops the ellipsis.
func TestSnippetFollowsLengthAcrossItsEdge(t *testing.T) {
	eng := memEngine(t)
	svc, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	d, err := eng.CreateDocument("ann", "edge")
	if err != nil {
		t.Fatal(err)
	}
	vocab := map[string]bool{"word": true, "x": true, "wordx": true}
	if _, err := d.InsertText("ann", 0, strings.Repeat("word ", 16)); err != nil { // 80 runes
		t.Fatal(err)
	}
	requireMatchesRebuild(t, "80 runes", eng, svc, vocab)
	if _, err := d.InsertText("ann", 80, "x"); err != nil {
		t.Fatal(err)
	}
	requireMatchesRebuild(t, "81 runes", eng, svc, vocab)
	if _, err := d.DeleteRange("ann", 80, 1); err != nil {
		t.Fatal(err)
	}
	requireMatchesRebuild(t, "80 runes again", eng, svc, vocab)
	if st := svc.Stats(); st.Delta < 3 {
		t.Fatalf("edits did not take the changed-range path: %+v", st)
	}
}

// foldCost measures what the indexer pays to fold and refresh one typed
// key on d, averaged over keys single-key edits at random positions: heap
// objects and bytes allocated between releasing a stalled service (the
// committed event is unread, nothing folded) and the end of Sync. The
// commit path itself runs under the stall and is not counted.
func foldCost(t *testing.T, svc *index.Service, d *core.Document, rng *rand.Rand, keys int) (allocs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	var mallocs, total uint64
	for k := 0; k < keys; k++ {
		release := svc.Stall()
		if _, err := d.InsertText("ann", rng.Intn(d.Len()+1), "k"); err != nil {
			release()
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		release()
		svc.Sync()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(mallocs) / float64(keys), float64(total) / float64(keys)
}

// TestFoldCostIndependentOfDocumentSize is the scaling guard of the
// changed-range fold: the allocations and bytes the indexer spends on one
// typed key in a 200k-character document stay within 1.5x of a
// 2k-character one. Any O(document) step hiding in the per-key path — a
// Text() render, a full tokenize, a rank index over the snapshot — costs
// hundreds of kilobytes per key at 200k and fails this by two orders of
// magnitude.
func TestFoldCostIndependentOfDocumentSize(t *testing.T) {
	database, err := db.Open(db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	eng, err := core.NewEngine(database, util.NewFakeClock(time.Unix(1_700_000_000, 0).UTC(), time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	words := strings.Repeat("lorem ipsum dolor sit amet consectetur ", 52)[:2000]
	build := func(name string, chars int) *core.Document {
		d, err := eng.CreateDocument("seed", name)
		if err != nil {
			t.Fatal(err)
		}
		for d.Len() < chars {
			if _, err := d.AppendText("seed", words); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	small, large := build("small", 2_000), build("large", 200_000)
	svc, err := index.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	foldCost(t, svc, small, rng, 20) // warm up: maps sized, goroutines started
	foldCost(t, svc, large, rng, 20)
	const keys = 200
	sa, sb := foldCost(t, svc, small, rng, keys)
	la, lb := foldCost(t, svc, large, rng, keys)
	t.Logf("per folded key: %d chars %.1f allocs %.0f B; %d chars %.1f allocs %.0f B",
		small.Len(), sa, sb, large.Len(), la, lb)
	if la > 1.5*sa || lb > 1.5*sb {
		t.Fatalf("fold cost grows with the document: %.1f allocs / %.0f B per key at %d chars, %.1f / %.0f at %d",
			la, lb, large.Len(), sa, sb, small.Len())
	}
	if st := svc.Stats(); st.Full.RingMiss+st.Full.SeqAhead != 0 {
		t.Fatalf("typing fell off the changed-range path: %+v", st)
	}
}
