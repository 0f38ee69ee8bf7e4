package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
)

var updateOwnRun = flag.Bool("update-own-run", false,
	"rewrite testdata/own_run.golden with the rows and events the batches write")

// TestBatchEditsItsOwnRun applies one batch that types a run, deletes the
// run's middle and types after one of the deleted instances, one whose
// later ops delete adjacent parts of its run, then batches that delete
// across rows and over instances already deleted, undo and
// redo them, paste a clip of several records longer than a row's text
// cap, compact and rehydrate. After every step the document's chars rows,
// its op rows and the step's event must equal testdata/own_run.golden.
func TestBatchEditsItsOwnRun(t *testing.T) {
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "own-run")
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Bus().Subscribe(d.ID(), awareness.SubscribeOpts{})
	defer sub.Close()
	var out strings.Builder
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "== %s\ntext %q\n", name, d.Text())
		for sub.Depth() > 0 {
			ev, _ := sub.Next()
			writeEvent(&out, ev)
		}
		writeRows(t, &out, e, d.ID())
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	_, err = d.InsertText("alice", 0, "0123456789")
	step("prologue", err)
	_, err = d.AppendText("alice", "ABCDEFGHIJ")
	step("append", err)

	// The IDs the batch's first insert will mint: the generator counts up
	// by one, and the batch reserves the run before anything else.
	first := e.ids.Next() + 1
	id := func(i int) util.ID { return first + util.ID(i) }
	_, err = d.Apply("bob", []EditOp{
		{Kind: EditInsert, Pos: 5, Text: "abcdefghij"},
		{Kind: EditDelete, Chars: []util.ID{id(3), id(4), id(5), id(6)}},
		{Kind: EditInsert, UseAnchor: true, Anchor: id(4), Text: "XY"},
	})
	step("one batch types a run, deletes its middle and types after a deleted instance", err)

	// Later ops delete two adjacent parts of the batch's run, and a part
	// of it by a list that repeats an ID and runs backwards.
	first = e.ids.Next() + 1
	_, err = d.Apply("erin", []EditOp{
		{Kind: EditInsert, Pos: 3, Text: "0123456789abcdef"},
		{Kind: EditDelete, Chars: []util.ID{id(4), id(5)}},
		{Kind: EditDelete, Chars: []util.ID{id(6), id(7), id(6)}},
		{Kind: EditDelete, Chars: []util.ID{id(12), id(11), id(10)}},
	})
	step("a batch deletes adjacent parts of its own run", err)

	_, err = d.Apply("carol", []EditOp{
		{Kind: EditDelete, Pos: 3, N: 8},
		{Kind: EditDelete, Chars: []util.ID{id(8), id(2), id(9), id(2)}},
	})
	step("deletes across rows and over deleted instances", err)
	_, err = d.UndoLocal("carol")
	step("undo of the explicit delete", err)
	_, err = d.UndoLocal("carol")
	step("undo of the positional delete", err)
	_, err = d.RedoLocal("carol")
	step("redo of the positional delete", err)

	var long strings.Builder
	for i := 0; i < 150; i++ {
		long.WriteRune(rune('a' + i%26))
		if i%7 == 3 {
			long.WriteRune('é')
		}
	}
	_, err = d.AppendText("dave", long.String())
	step("a run past the text cap", err)
	clip, err := d.Copy("dave", 0, d.Len())
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Paste("dave", 4, clip)
	step("a paste of several records past the text cap", err)

	_, err = d.Compact(e.clock.Now())
	step("compaction", err)
	_, err = d.UndoLocal("bob")
	step("undo of the insert after the deleted instance", err)
	_, err = d.UndoLocal("bob")
	step("undo of the archived delete", err)
	_, err = d.Apply("bob", []EditOp{
		{Kind: EditInsert, Pos: 2, Text: "pq"},
		{Kind: EditDelete, Pos: 0, N: 3},
		{Kind: EditInsert, AnchorPrev: true, Text: "rs"},
		{Kind: EditLayout, AnchorPrev: true, Span: SpanBold, Value: "true"},
		{Kind: EditNote, AnchorPrev: true, Text: "note"},
	})
	step("a mixed batch", err)

	const path = "testdata/own_run.golden"
	if *updateOwnRun {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s %d", len(gl), path, len(wl))
	}
}

// writeEvent writes ev's kind, position, text, count, name and IDs, and
// its items'.
func writeEvent(out *strings.Builder, ev awareness.Event) {
	fmt.Fprintf(out, "event %s op=%v pos=%d text=%q n=%d name=%q ids=%s\n",
		ev.Kind, ev.OpID, ev.Pos, ev.Text, ev.N, ev.Name, stretches(ev.IDs))
	for _, it := range ev.Batch {
		fmt.Fprintf(out, "  item %s pos=%d text=%q n=%d ids=%s src=%v\n",
			it.Kind, it.Pos, it.Text, it.N, stretches(it.IDs), it.SrcDoc)
	}
}

func stretches(l util.IDs) string {
	var parts []string
	for k := 0; k < l.Stretches(); k++ {
		s := l.Stretch(k)
		parts = append(parts, fmt.Sprintf("%v+%d*%d", s.First, s.Step, s.N))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeRows writes the chars rows and the op rows of doc, each table in
// primary-key order, a column at a time.
func writeRows(t *testing.T, out *strings.Builder, e *Engine, doc util.ID) {
	t.Helper()
	for _, nt := range []struct {
		name string
		tbl  *db.Table
	}{{"chars", e.tChars}, {"ops", e.tOps}} {
		name, tbl := nt.name, nt.tbl
		var lines []string
		err := tbl.Scan(nil, func(_ db.RID, row db.Row) (bool, error) {
			if util.ID(row[1].(int64)) != doc {
				return true, nil
			}
			var cols []string
			for _, v := range row {
				switch v := v.(type) {
				case []byte:
					cols = append(cols, fmt.Sprintf("%x", v))
				case string:
					cols = append(cols, fmt.Sprintf("%q", v))
				case time.Time:
					cols = append(cols, fmt.Sprint(v.UnixNano()))
				default:
					cols = append(cols, fmt.Sprint(v))
				}
			}
			lines = append(lines, fmt.Sprintf("%016d %s %s", row[0].(int64), name, strings.Join(cols, " ")))
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(lines)
		for _, l := range lines {
			out.WriteString(l[17:] + "\n")
		}
	}
}

// maxRangeDeleteAllocRatio bounds what a 200-character DeleteRange
// allocates against a 6-character one in the same document. Staging a
// character record, a map entry and a heap copy per deleted instance, and
// cutting each touched row into characters and back, made it 292 against
// 42 (7.0); staging the range as stretches, a row as index ranges, makes
// the cost follow the records the range touches, not its length.
const maxRangeDeleteAllocRatio = 1.5

// TestRangeDeleteCostIndependentOfLength builds a 60k-character document
// from 500-character inserts, deletes ranges of 6 and of 200 characters
// across it, and fails if the long deletes allocate more than
// maxRangeDeleteAllocRatio times what the short ones do, counting
// runtime.MemStats.Mallocs over the deletes (the least of three rounds).
func TestRangeDeleteCostIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	e := newEngine(t)
	d, err := e.CreateDocument("alice", "range-deletes")
	if err != nil {
		t.Fatal(err)
	}
	chunk := strings.Repeat("lorem ipsum dolor sit amet, ", 500/28+1)[:500]
	for d.Len() < 60000 {
		if _, err := d.AppendText("alice", chunk); err != nil {
			t.Fatal(err)
		}
	}
	const deletes = 20
	pos := 0
	perDelete := func(n int) float64 {
		return leastOf3(func() float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < deletes; i++ {
				pos = (pos + 7919) % (d.Len() - n)
				if _, err := d.DeleteRange("bob", pos, n); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / deletes
		})
	}
	short, long := perDelete(6), perDelete(200)
	t.Logf("%.1f allocations per 6-character delete, %.1f per 200-character delete", short, long)
	if long > maxRangeDeleteAllocRatio*short {
		t.Fatalf("a 200-character delete allocated %.1f times, over %.1f × the %.1f of a 6-character one",
			long, maxRangeDeleteAllocRatio, short)
	}
}

// insertRuns writes chars, new instances in the order created, as the rows
// a batch that staged them writes: each instance a staged run of its own,
// which insertRows joins by the row rule.
func (d *Document) insertRuns(tx *txn.Txn, rb *rowBuf, chars []*texttree.Char) error {
	runs := make([]stagedRun, len(chars))
	for i, c := range chars {
		runs[i] = stagedRun{n: 1, Run: texttree.Run{First: c.ID, Step: d.eng.rowStep(), After: c.After,
			Key: c.Key, Text: string(c.Rune), Author: c.Author, Created: c.Created, Deleted: c.Deleted,
			DeletedBy: c.DeletedBy, DeletedAt: c.DeletedAt, Restored: c.Restored,
			SourceDoc: c.SourceDoc, SourceFirst: c.SourceChar}}
	}
	return d.insertRows(tx, rb, runs)
}
