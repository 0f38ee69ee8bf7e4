package db

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestTableUpdateIndexes updates rows in each of the ways Table.Update
// tells apart — only non-indexed bytes change (the indexes stay as they
// are), an indexed column changes (the row is re-indexed), the row outgrows
// its page (it is relocated and re-indexed under a new RID) — each once
// committed and once in a transaction that aborts. After every case the
// table must answer GetByPK, LookupEq and Count as the model says, hold
// exactly the model's bytes, and answer the same again after its indexes
// are rebuilt from the heap.
func TestTableUpdateIndexes(t *testing.T) {
	schema := Schema{
		{Name: "id", Type: TInt},
		{Name: "tag", Type: TString},
		{Name: "body", Type: TBytes},
	}
	const rows = 30
	initial := func(id int64) Row {
		return Row{id, fmt.Sprintf("t%d", id%3), bytes.Repeat([]byte{byte(id)}, 100)}
	}
	targets := []int64{3, 7, 12}
	cases := []struct {
		name     string
		mutate   func(Row) Row
		relocate bool
	}{
		{"non-indexed column", func(r Row) Row {
			return Row{r[0], r[1], bytes.Repeat([]byte{0xEE}, 100)}
		}, false},
		{"indexed column", func(r Row) Row {
			return Row{r[0], "renamed", r[2]}
		}, false},
		{"relocation", func(r Row) Row {
			return Row{r[0], r[1], bytes.Repeat([]byte{0xEE}, 1900)}
		}, true},
	}
	for _, c := range cases {
		for _, abort := range []bool{false, true} {
			name := c.name
			if abort {
				name += ", aborted"
			}
			t.Run(name, func(t *testing.T) {
				d := memDB(t)
				tbl, err := d.CreateTable("rows", schema, "tag")
				if err != nil {
					t.Fatal(err)
				}
				model := map[int64]Row{}
				tx, _ := d.Begin()
				for id := int64(1); id <= rows; id++ {
					model[id] = initial(id)
					if _, err := tbl.Insert(tx, model[id]); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				before := answers(t, tbl, model)

				tx, _ = d.Begin()
				for _, id := range targets {
					if err := tbl.UpdateByPK(tx, id, c.mutate(model[id])); err != nil {
						t.Fatal(err)
					}
				}
				if abort {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					for _, id := range targets {
						model[id] = c.mutate(model[id])
					}
				}

				after := answers(t, tbl, model)
				moved := 0
				for _, id := range targets {
					if after.rids[id] != before.rids[id] {
						moved++
					}
				}
				if relocated := c.relocate && !abort; (moved > 0) != relocated {
					t.Fatalf("%d of %d updated rows changed RID", moved, len(targets))
				}
				if err := tbl.RebuildIndexes(); err != nil {
					t.Fatal(err)
				}
				if rebuilt := answers(t, tbl, model); !reflect.DeepEqual(rebuilt, after) {
					t.Fatalf("indexes differ from a rebuild:\n live    %+v\n rebuilt %+v", after, rebuilt)
				}
			})
		}
	}
}

// tableAnswers is what a table answers about the rows of a model: the RID
// GetByPK finds for each key, the sorted RIDs LookupEq finds for each tag,
// and Count.
type tableAnswers struct {
	rids  map[int64]RID
	byTag map[string][]RID
	count int
}

// answers queries tbl, fails the test where it disagrees with model — rows,
// tag lookups, count, and the records stored in the heap byte for byte —
// and returns what it answered.
func answers(t *testing.T, tbl *Table, model map[int64]Row) tableAnswers {
	t.Helper()
	a := tableAnswers{rids: map[int64]RID{}, byTag: map[string][]RID{}, count: tbl.Count()}
	if a.count != len(model) {
		t.Fatalf("Count = %d, model has %d rows", a.count, len(model))
	}
	wantTag := map[string][]RID{}
	for id, want := range model {
		row, rid, err := tbl.GetByPK(nil, id)
		if err != nil {
			t.Fatalf("GetByPK(%d): %v", id, err)
		}
		if !reflect.DeepEqual(row, want) {
			t.Fatalf("GetByPK(%d) = %v, model %v", id, row, want)
		}
		a.rids[id] = rid
		tag := want[1].(string)
		wantTag[tag] = append(wantTag[tag], rid)
	}
	for _, tag := range []string{"t0", "t1", "t2", "renamed"} {
		got, err := tbl.LookupEq("tag", tag)
		if err != nil {
			t.Fatal(err)
		}
		sortRIDs(got)
		sortRIDs(wantTag[tag])
		if !slices.Equal(got, wantTag[tag]) {
			t.Fatalf("LookupEq(tag, %q) = %v, model rows at %v", tag, got, wantTag[tag])
		}
		a.byTag[tag] = got
	}
	stored := map[RID][]byte{}
	if err := tbl.heap.ScanDirty(func(rid RID, rec []byte) error {
		stored[rid] = rec
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(model) {
		t.Fatalf("heap holds %d records, model has %d rows", len(stored), len(model))
	}
	for id, rid := range a.rids {
		want, err := EncodeRow(tbl.Schema(), model[id])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored[rid], want) {
			t.Fatalf("row %d: heap record at %v differs from the model's encoding", id, rid)
		}
	}
	return a
}

func sortRIDs(rids []RID) {
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].Page != rids[j].Page {
			return rids[i].Page < rids[j].Page
		}
		return rids[i].Slot < rids[j].Slot
	})
}
