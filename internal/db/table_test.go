package db

import (
	"bytes"
	"fmt"
	"math"
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
	a := tableAnswers{rids: map[int64]RID{}, byTag: map[string][]RID{}, count: tbl.count()}
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

// TestFloorByPK looks up keys at, between, below and above the rows of a
// table whose keys are the multiples of ten, before and after deleting
// rows, and checks each answer against the greatest key at or below.
func TestFloorByPK(t *testing.T) {
	d := memDB(t)
	tbl, err := d.CreateTable("runs", Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	var keys []int64
	for id := int64(10); id <= 2000; id += 10 {
		if _, err := tbl.Insert(tx, Row{id, fmt.Sprint(id)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, id)
	}
	for _, id := range []int64{500, 510, 520, 2000, 10} {
		if err := tbl.DeleteByPK(tx, id); err != nil {
			t.Fatal(err)
		}
		i, _ := slices.BinarySearch(keys, id)
		keys = slices.Delete(keys, i, i+1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for pk := int64(-5); pk <= 2050; pk += 3 {
		i, found := slices.BinarySearch(keys, pk)
		if !found {
			i--
		}
		row, _, err := tbl.floorByPK(nil, pk)
		if i < 0 {
			if err != ErrNotFound {
				t.Fatalf("FloorByPK(%d) = %v, %v; want ErrNotFound", pk, row, err)
			}
			continue
		}
		if err != nil || row[0].(int64) != keys[i] || row[1].(string) != fmt.Sprint(keys[i]) {
			t.Fatalf("FloorByPK(%d) = %v, %v; want the row of %d", pk, row, err, keys[i])
		}
	}
}

// TestKeysAcrossVarintWidths stores rows whose primary keys and indexed
// int column sit on both sides of every varint length boundary (63/64,
// 8191/8192, 2^20, 2^27, … 2^62, their negatives, MinInt64 and MaxInt64):
// rows take 1 to 10 bytes per int, but their B-tree keys must still order
// by value. GetByPK, FloorByPK, LookupEq, MaxPK and the ascending order of
// both indexes are checked against a sorted model, before and after a
// reopen rebuilds the indexes from the stored rows.
func TestKeysAcrossVarintWidths(t *testing.T) {
	keys := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for w := 7; w <= 63; w += 7 {
		b := int64(1) << (w - 1) // the least positive int whose varint takes w/7+1 bytes
		keys = append(keys, b-1, b, -b, -b-1)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	// Row i's v is a key from the other end, shared by a pair of rows.
	v := func(i int) int64 { return keys[len(keys)-1-(i&^1)] }
	schema := Schema{{Name: "id", Type: TInt}, {Name: "v", Type: TInt}, {Name: "s", Type: TString}}

	dir := t.TempDir()
	d, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("keys", schema, "v")
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := d.Begin()
	for i, k := range keys {
		if _, err := tbl.Insert(tx, Row{k, v(i), fmt.Sprint(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := func(when string, tbl *Table) {
		t.Helper()
		if n := tbl.count(); n != len(keys) {
			t.Fatalf("%s: Count = %d, want %d", when, n, len(keys))
		}
		if m := tbl.MaxPK(); m != math.MaxInt64 {
			t.Fatalf("%s: MaxPK = %d", when, m)
		}
		pkOf := map[RID]int64{}
		byV := map[int64][]RID{}
		for i, k := range keys {
			row, rid, err := tbl.GetByPK(nil, k)
			if err != nil || !reflect.DeepEqual(row, Row{k, v(i), fmt.Sprint(k)}) {
				t.Fatalf("%s: GetByPK(%d) = %v, %v", when, k, row, err)
			}
			pkOf[rid] = k
			byV[v(i)] = append(byV[v(i)], rid)
			floors := map[int64]int64{k: k} // probe -> the key it must find
			if i+1 < len(keys) && keys[i+1] != k+1 {
				floors[k+1] = k
			}
			if i > 0 && keys[i-1] != k-1 {
				floors[k-1] = keys[i-1]
			}
			for probe, want := range floors {
				if row, _, err := tbl.floorByPK(nil, probe); err != nil || row[0] != want {
					t.Fatalf("%s: FloorByPK(%d) = %v, %v; want the row of %d", when, probe, row, err, want)
				}
			}
		}
		for val, want := range byV {
			got, err := tbl.LookupEq("v", val)
			if err != nil {
				t.Fatal(err)
			}
			sortRIDs(got)
			sortRIDs(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: LookupEq(v, %d) = %v, want %v", when, val, got, want)
			}
		}
		var byPK []int64
		tbl.pk.AscendRange(nil, nil, func(_ []byte, rid RID) bool {
			byPK = append(byPK, pkOf[rid])
			return true
		})
		if !slices.Equal(byPK, keys) {
			t.Fatalf("%s: the primary key ascends as %v, want %v", when, byPK, keys)
		}
		vOf := map[RID]int64{}
		for val, rids := range byV {
			for _, rid := range rids {
				vOf[rid] = val
			}
		}
		var vs []int64
		tbl.indexes[0].tree.AscendRange(nil, nil, func(_ []byte, rid RID) bool {
			vs = append(vs, vOf[rid])
			return true
		})
		if len(vs) != len(keys) || !slices.IsSorted(vs) {
			t.Fatalf("%s: the index on v ascends as %v", when, vs)
		}
	}
	check("before the reopen", tbl)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check("after the reopen", d.Table("keys"))
}
