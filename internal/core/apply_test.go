package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"tendax/internal/awareness"
	"tendax/internal/util"
)

func TestApplyBatchInsertDelete(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "AB"); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	idA, _ := snap.Tree().IDAt(0)
	idB, _ := snap.Tree().IDAt(1)

	// One batch: insert "xy" after A, delete B, append "z" after the
	// batch's own insert.
	res, err := d.Apply("bob", []EditOp{
		{Kind: EditInsert, UseAnchor: true, Anchor: idA, Text: "xy"},
		{Kind: EditDelete, Chars: []util.ID{idB}},
		{Kind: EditInsert, AnchorPrev: true, Text: "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results: %d", len(res))
	}
	if got := d.Text(); got != "Axyz" {
		t.Fatalf("text %q, want %q", got, "Axyz")
	}
	if res[0].Pos != 1 || len(res[0].IDs) != 2 {
		t.Fatalf("insert result %+v", res[0])
	}
	if len(res[1].IDs) != 1 || res[1].IDs[0] != idB {
		t.Fatalf("delete result %+v", res[1])
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The batch survives a reload from the database byte-for-byte.
	d2 := reload(t, e, d.ID())
	if got := d2.Text(); got != "Axyz" {
		t.Fatalf("reloaded text %q", got)
	}
	// One history entry per op, inside one committed transaction.
	kinds := []string{}
	for _, op := range d2.History() {
		kinds = append(kinds, op.Kind)
	}
	want := "insert,insert,delete,insert"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("history %s, want %s", got, want)
	}
}

// reload opens the document on a fresh engine over the same database.
func reload(t *testing.T, e *Engine, id util.ID) *Document {
	t.Helper()
	e2, err := NewEngine(e.DB(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e2.OpenDocument(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestApplyBatchOneEvent(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-ev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "base"); err != nil {
		t.Fatal(err)
	}
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()

	// A multi-op batch publishes exactly ONE event, kind batch, whose
	// items replay positionally.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 4, Text: "12"},
		{Kind: EditInsert, AnchorPrev: true, Text: "3"},
		{Kind: EditDelete, Pos: 0, N: 2},
	}); err != nil {
		t.Fatal(err)
	}
	ev, _ := sub.Next()
	if ev.Kind != awareness.EvBatch {
		t.Fatalf("kind %q", ev.Kind)
	}
	if len(ev.Batch) != 3 {
		t.Fatalf("items %d", len(ev.Batch))
	}
	// Replay the items against the pre-batch text.
	runes := []rune("base")
	for _, it := range ev.Batch {
		switch it.Kind {
		case awareness.EvInsert:
			runes = append(runes[:it.Pos], append([]rune(it.Text), runes[it.Pos:]...)...)
		case awareness.EvDelete:
			runes = append(runes[:it.Pos], runes[it.Pos+it.N:]...)
		}
	}
	if got, want := string(runes), d.Text(); got != want {
		t.Fatalf("replayed %q, committed %q", got, want)
	}
	if depth := sub.Depth(); depth != 0 {
		t.Fatalf("%d extra events queued for one batch", depth)
	}

	// A single-op batch keeps the legacy event kind.
	if _, err := d.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: "q"}}); err != nil {
		t.Fatal(err)
	}
	ev, _ = sub.Next()
	if ev.Kind != awareness.EvInsert || ev.Pos != 0 || ev.Text != "q" {
		t.Fatalf("legacy event %+v", ev)
	}
}

func TestApplyBatchAtomicity(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-atomic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "hello"); err != nil {
		t.Fatal(err)
	}
	before := d.Text()
	hist := len(d.History())

	// Second op is invalid (unknown anchor): the whole batch must fail and
	// nothing of the first op may be visible.
	_, err = d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 5, Text: " world"},
		{Kind: EditInsert, UseAnchor: true, Anchor: util.ID(999999), Text: "x"},
	})
	if err == nil {
		t.Fatal("batch with unknown anchor committed")
	}
	if got := d.Text(); got != before {
		t.Fatalf("text %q after failed batch, want %q", got, before)
	}
	if got := len(d.History()); got != hist {
		t.Fatalf("history grew to %d after failed batch", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyAnchorsSurviveConcurrentRepositioning(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "anchors")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "AB"); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	idB, _ := snap.Tree().IDAt(1)

	// Another editor moves B before our anchored edits commit.
	if _, err := d.InsertText("bob", 1, "XXX"); err != nil {
		t.Fatal(err)
	}
	// Insert after B: lands after B's identity (now position 5), not at
	// the stale position 2.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, UseAnchor: true, Anchor: idB, Text: "YYY"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "AXXXBYYY" {
		t.Fatalf("text %q, want AXXXBYYY", got)
	}
	// Delete B by identity: tombstones B wherever it sits.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditDelete, Chars: []util.ID{idB}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "AXXXYYY" {
		t.Fatalf("text %q, want AXXXYYY", got)
	}
	// Deleting B again commutes (no-op), and inserting after the tombstone
	// resumes at its position.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditDelete, Chars: []util.ID{idB}},
		{Kind: EditInsert, UseAnchor: true, Anchor: idB, Text: "-"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "AXXX-YYY" {
		t.Fatalf("text %q, want AXXX-YYY", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyLayoutAndNote(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-span")
	if err != nil {
		t.Fatal(err)
	}
	// One batch: type a heading and style it, and hang a note on the
	// batch's own freshly created text.
	res, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 0, Text: "Title"},
		{Kind: EditLayout, AnchorPrev: true, Span: SpanBold, Value: "true"},
		{Kind: EditNote, AnchorPrev: true, Text: "review me"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Span.IsNil() || res[2].Span.IsNil() {
		t.Fatalf("span ids missing: %+v", res)
	}
	spans, err := d.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans %d", len(spans))
	}
	from, to := d.SpanRange(spans[0])
	if from != 0 || to != 5 {
		t.Fatalf("bold span [%d,%d)", from, to)
	}
	// The layout op references instances created earlier in the SAME
	// batch — the span anchors must resolve after reload too.
	d2 := reload(t, e, d.ID())
	spans2, err := d2.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans2) != 2 {
		t.Fatalf("reloaded spans %d", len(spans2))
	}
	if from, to := d2.SpanRange(spans2[0]); from != 0 || to != 5 {
		t.Fatalf("reloaded bold span [%d,%d)", from, to)
	}
}

func TestApplyInsertThenDeleteSameBatch(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-net")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 0, Text: "abcd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete two of the four chars we just typed, in the same batch as
	// more typing.
	ids := res[0].IDs
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, UseAnchor: true, Anchor: ids[3], Text: "ef"},
		{Kind: EditDelete, Chars: []util.ID{ids[1], ids[2]}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "adef" {
		t.Fatalf("text %q, want adef", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, e, d.ID()).Text(); got != "adef" {
		t.Fatalf("reloaded %q", got)
	}
}

func TestApplyUndoOfBatchOps(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-undo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 0, Text: "one "},
		{Kind: EditInsert, AnchorPrev: true, Text: "two"},
	}); err != nil {
		t.Fatal(err)
	}
	// Each op of the batch is its own history entry, so undo peels them
	// individually — batch commit granularity does not coarsen undo.
	if _, err := d.UndoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "one " {
		t.Fatalf("after undo: %q", got)
	}
	if _, err := d.RedoLocal("alice"); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "one two" {
		t.Fatalf("after redo: %q", got)
	}
}

func TestApplyPosFallbackResolvesAtBatchStart(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-pos")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "ABCD"); err != nil {
		t.Fatal(err)
	}
	// Two position-fallback deletes in one batch both address the
	// BATCH-START state: {1} and {2} remove B and C, not B and D.
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditDelete, Pos: 1, N: 1},
		{Kind: EditDelete, Pos: 2, N: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "AD" {
		t.Fatalf("text %q, want AD", got)
	}
}

func TestApplyDurableAcrossCrash(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "batch-crash")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditInsert, Pos: 0, Text: "durable"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply("alice", []EditOp{
		{Kind: EditDelete, Pos: 0, N: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if got := reload(t, e, d.ID()).Text(); got != "able" {
		t.Fatalf("reloaded %q, want able", got)
	}
}

// TestPositionalAPIEventShapes pins what each positional method — a one-op
// batch through Apply — publishes and logs: the legacy event kind (never
// EvBatch for one op), position, count, text, instance IDs, the layout's
// "kind=value" name and the paste's source document.
func TestPositionalAPIEventShapes(t *testing.T) {
	e := newEngine(t)
	ext, err := e.CreateExternalSource("https://example.org/spec")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.CreateDocument("alice", "shapes")
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()

	for i, tc := range []struct {
		do     func() (util.ID, error)
		want   awareness.Event // Kind, Pos, N, Text, Name, SrcDoc
		ids    int
		logged string
		text   string // committed text afterwards
	}{
		{func() (util.ID, error) { return d.InsertText("alice", 0, "hello") },
			awareness.Event{Kind: awareness.EvInsert, Pos: 0, N: 5, Text: "hello"}, 5, "insert", "hello"},
		{func() (util.ID, error) { return d.AppendText("alice", " world") },
			awareness.Event{Kind: awareness.EvInsert, Pos: 5, N: 6, Text: " world"}, 6, "insert", "hello world"},
		{func() (util.ID, error) { return d.Paste("alice", 5, Clipboard{Text: "XY", SrcDoc: ext}) },
			awareness.Event{Kind: awareness.EvPaste, Pos: 5, N: 2, Text: "XY", SrcDoc: ext}, 2, "paste", "helloXY world"},
		{func() (util.ID, error) { return d.DeleteRange("alice", 0, 3) },
			awareness.Event{Kind: awareness.EvDelete, Pos: 0, N: 3}, 3, "delete", "loXY world"},
		{func() (util.ID, error) { return d.ApplyLayout("alice", 1, 4, SpanBold, "true") },
			awareness.Event{Kind: awareness.EvLayout, Pos: 1, N: 4, Name: "bold=true"}, 0, "layout", "loXY world"},
		{func() (util.ID, error) { return insertNote(d, "alice", 2, "nb") },
			awareness.Event{Kind: awareness.EvNote, Pos: 2, Text: "nb"}, 0, "layout", "loXY world"},
	} {
		id, err := tc.do()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ev, _ := sub.Next()
		got := awareness.Event{Kind: ev.Kind, Pos: ev.Pos, N: ev.N, Text: ev.Text, Name: ev.Name, SrcDoc: ev.SrcDoc}
		if !reflect.DeepEqual(got, tc.want) || ev.IDs.Len() != tc.ids || len(ev.Batch) != 0 {
			t.Fatalf("step %d: event %+v, want %+v with %d ids", i, ev, tc.want, tc.ids)
		}
		h := d.History()
		if len(h) != i+1 || h[i].Kind != tc.logged || h[i].ID != ev.OpID {
			t.Fatalf("step %d: history %+v, want %d entries ending in a %q with the event's op ID %v",
				i, h, i+1, tc.logged, ev.OpID)
		}
		wantID := h[i].ID // text edits return the op ID, layout and note the span ID
		if tc.logged == "layout" {
			wantID = h[i].Ref
		}
		if id != wantID {
			t.Fatalf("step %d: returned %v, want %v", i, id, wantID)
		}
		if d.Text() != tc.text {
			t.Fatalf("step %d: text %q, want %q", i, d.Text(), tc.text)
		}
	}
	if depth := sub.Depth(); depth != 0 {
		t.Fatalf("%d extra events queued", depth)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendsNeverSplit: AppendText resolves the end of the
// document under the document lock, so two appenders racing each other
// interleave whole runs, never characters.
func TestConcurrentAppendsNeverSplit(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "appenders")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, runLen = 40, 7
	var wg sync.WaitGroup
	for _, r := range "ab" {
		wg.Add(1)
		go func(user, run string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := d.AppendText(user, run); err != nil {
					t.Error(err)
					return
				}
			}
		}(string(r), strings.Repeat(string(r), runLen))
	}
	wg.Wait()
	text := d.Text()
	if len(text) != 2*rounds*runLen {
		t.Fatalf("committed %d chars, want %d", len(text), 2*rounds*runLen)
	}
	for i := 0; i < len(text); i += runLen {
		if run := text[i : i+runLen]; strings.Count(run, run[:1]) != runLen {
			t.Fatalf("run at %d split by the other appender: %q", i, run)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUndoRedoEventItems pins what undo and redo publish: the instances
// they flip as positional items, resolved like a batch's, with adjacent
// flips merged — hidden runs collapse onto one position even across
// another user's tombstones, restored runs carry their runes — and a span
// undo as one layout item at the span's start.
func TestUndoRedoEventItems(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "undo-items")
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()
	if _, err := d.InsertText("alice", 0, "abcdef"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteRange("bob", 2, 2); err != nil {
		t.Fatal(err)
	}
	sub.Next()
	sub.Next()
	for i, tc := range []struct {
		do   func() (util.ID, error)
		kind awareness.EventKind
		want []awareness.BatchItem // IDs checked by count only
		text string                // committed text afterwards
	}{
		{func() (util.ID, error) { return d.UndoLocal("alice") }, awareness.EvUndo,
			[]awareness.BatchItem{{Kind: awareness.EvDelete, Pos: 0, N: 4}}, ""},
		{func() (util.ID, error) { return d.RedoLocal("alice") }, awareness.EvRedo,
			[]awareness.BatchItem{{Kind: awareness.EvInsert, Pos: 0, N: 4, Text: "abef"}}, "abef"},
		{func() (util.ID, error) { return d.UndoLocal("bob") }, awareness.EvUndo,
			[]awareness.BatchItem{{Kind: awareness.EvInsert, Pos: 2, N: 2, Text: "cd"}}, "abcdef"},
		{func() (util.ID, error) { return d.ApplyLayout("alice", 1, 3, SpanBold, "true") }, awareness.EvLayout,
			nil, "abcdef"},
		{func() (util.ID, error) { return d.UndoLocal("alice") }, awareness.EvUndo,
			[]awareness.BatchItem{{Kind: awareness.EvLayout, Pos: 1}}, "abcdef"},
	} {
		if _, err := tc.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ev, _ := sub.Next()
		got := make([]awareness.BatchItem, len(ev.Batch))
		for j, it := range ev.Batch {
			if it.IDs.Len() != it.N {
				t.Fatalf("step %d: item %+v names %d instances", i, it, it.IDs.Len())
			}
			got[j] = awareness.BatchItem{Kind: it.Kind, Pos: it.Pos, N: it.N, Text: it.Text}
		}
		if ev.Kind != tc.kind || (tc.want != nil && !reflect.DeepEqual(got, tc.want)) {
			t.Fatalf("step %d: %s event with items %+v, want %s with %+v", i, ev.Kind, got, tc.kind, tc.want)
		}
		if txt := d.Text(); txt != tc.text {
			t.Fatalf("step %d: text %q, want %q", i, txt, tc.text)
		}
	}
}

// TestBatchAddressesArchivedInstances: a batch may name an instance that
// compaction archived — a delete of it holds already, an insert after it
// lands where its text would resume — whether the archive was built while
// the document stayed open or is parked on disk after a reopen.
func TestBatchAddressesArchivedInstances(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		e := newEngine(t)
		d, _, _, _ := buildCompacted(t, e) // "keep-DELETED-keep", DELETED archived
		ids, err := d.opIDs(d.ops[len(d.ops)-1].ID)
		if err != nil {
			t.Fatal(err)
		}
		archived := ids.AppendTo(nil)
		if reopen {
			d = reload(t, e, d.ID())
		}
		if _, err := d.Apply("bob", []EditOp{
			{Kind: EditDelete, Chars: archived[:2]},
			{Kind: EditInsert, UseAnchor: true, Anchor: archived[3], Text: "X"},
		}); err != nil {
			t.Fatalf("reopen=%v: %v", reopen, err)
		}
		if got := d.Text(); got != "keep-X-keep" {
			t.Fatalf("reopen=%v: text %q", reopen, got)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("reopen=%v: %v", reopen, err)
		}
	}
}

// TestRevertOfEmptyDelete: a delete by identity of an instance another
// user deleted first flips nothing and logs an empty set; undoing it and
// redoing that undo flip nothing either, and each still logs its row.
func TestRevertOfEmptyDelete(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "empty-revert")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: "ab"}})
	if err != nil {
		t.Fatal(err)
	}
	b := res[0].IDs[1:]
	for _, user := range []string{"alice", "bob"} {
		if _, err := d.Apply(user, []EditOp{{Kind: EditDelete, Chars: b}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.UndoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RedoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if got := d.Text(); got != "a" {
		t.Fatalf("text %q, want \"a\"", got)
	}
	var kinds []string
	for _, op := range d.History() {
		kinds = append(kinds, op.Kind)
	}
	if got := strings.Join(kinds, ","); got != "insert,delete,delete,undo,redo" {
		t.Fatalf("history %s", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStepsRefusedInBatches: the restore and span-flag steps are
// staged only by undo, redo and RemoveSpan; a batch op naming either is an
// unknown kind.
func TestEngineStepsRefusedInBatches(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "steps")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: "ab"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteRange("alice", 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{stepRestore, stepSpanFlag} {
		if _, err := d.Apply("alice", []EditOp{{Kind: kind, Chars: res[0].IDs}}); err == nil ||
			!strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("batch op of kind %q: %v, want an unknown kind", kind, err)
		}
	}
	if got := d.Text(); got != "b" {
		t.Fatalf("text %q, want \"b\"", got)
	}
}

// TestRemoveSpanEvent: a span removal publishes one layout event named
// "remove" at the span's start, and undo brings the span back.
func TestRemoveSpanEvent(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "remove-span")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, "hello world"); err != nil {
		t.Fatal(err)
	}
	span, err := d.ApplyLayout("alice", 6, 5, SpanBold, "true")
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()
	if err := d.removeSpan("bob", span); err != nil {
		t.Fatal(err)
	}
	ev, _ := sub.Next()
	if ev.Kind != awareness.EvLayout || ev.Name != "remove" || ev.Pos != 6 || ev.OpID.IsNil() {
		t.Fatalf("removal event %+v, want a layout event named remove at 6", ev)
	}
	if spans, _ := d.Spans(); len(spans) != 0 {
		t.Fatalf("%d spans after removal", len(spans))
	}
	if _, err := d.UndoLocal("bob"); err != nil {
		t.Fatal(err)
	}
	if spans, _ := d.Spans(); len(spans) != 1 {
		t.Fatalf("%d spans after undoing the removal", len(spans))
	}
	if err := d.removeSpan("bob", util.ID(1<<40)); err == nil {
		t.Fatal("removal of an unknown span succeeded")
	}
}
