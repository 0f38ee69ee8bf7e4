package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// maxOneKeyBatchLogBytes bounds the WAL one typed character costs when it is
// its own batch — the interactive regime the paper demonstrates — on
// average over the keys. Logging full before and after images of the two
// relinked neighbours and the document row under a fixed-width header cost
// ~1 254 B; splices under a varint header cost ~340 B. Rows written once,
// ordered by their anchors, with no neighbour rewritten, cost ~287 B.
// Leaving the docs row alone unless the author is new costs ~228 B.
const maxOneKeyBatchLogBytes = 240

// maxOneKeyBatchWorstLogBytes bounds the WAL of any single one-key batch.
// The worst is an author's first batch, whose document-row update also
// appends the name to the authors column: ~377 B with the two neighbour
// relinks, ~325 B without, ~261 B with a docs row of six columns.
const maxOneKeyBatchWorstLogBytes = 360

// TestOneKeyBatchLogBytes types one-key batches between two existing
// characters of a 20k-character document, two authors alternating, and
// fails if the keys log more than maxOneKeyBatchLogBytes each on average,
// any batch logs more than maxOneKeyBatchWorstLogBytes, or a batch by an
// author the docs row already lists writes that row. It logs what the
// bytes are: records and bytes per key, by record type and table.
func TestOneKeyBatchLogBytes(t *testing.T) {
	store, database, d := newOneKeyDoc(t)
	tables := map[uint64]string{}
	for _, name := range database.Tables() {
		tables[database.Table(name).ID()] = name
	}

	const keys = 200
	from := database.Log().NextLSN()
	worst := 0
	// starts[i] is the first LSN of batch i; listed[i] whether its author
	// was in the authors column before it.
	var starts []wal.LSN
	var listed []bool
	for i := 0; i < keys; i++ {
		user := [2]string{"alice", "bob"}[i%2]
		size := store.Len()
		starts = append(starts, database.Log().NextLSN())
		listed = append(listed, slices.Contains(d.Info().Authors, user))
		if _, err := d.InsertText(user, 1+(i*7919)%(d.Len()-1), "k"); err != nil {
			t.Fatal(err)
		}
		if n := store.Len() - size; n > worst {
			worst = n
		}
	}

	type line struct{ records, bytes int }
	byKind := map[string]*line{}
	total := 0
	err := database.Log().Iterate(func(r *wal.Record) error {
		if r.LSN < from {
			return nil
		}
		kind := r.Type.String()
		if r.Type == wal.RecUpdate || r.Type == wal.RecCLR {
			kind = fmt.Sprintf("%s %s %s", kind, [...]string{"", "insert", "update", "delete"}[r.Op], tables[r.Owner])
			batch, _ := slices.BinarySearch(starts, r.LSN+1)
			if batch--; tables[r.Owner] == "docs" && listed[batch] {
				t.Errorf("batch %d wrote the docs row, but its author was listed already", batch)
			}
		}
		if byKind[kind] == nil {
			byKind[kind] = &line{}
		}
		byKind[kind].records++
		byKind[kind].bytes += r.Size()
		total += r.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return byKind[kinds[i]].bytes > byKind[kinds[j]].bytes })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %9s\n", "record per key", "count", "B/key")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-28s %9.2f %9.1f\n", k, float64(byKind[k].records)/keys, float64(byKind[k].bytes)/keys)
	}
	fmt.Fprintf(&b, "%-28s %9s %9.1f (worst batch %d B)", "total", "", float64(total)/keys, worst)
	t.Logf("WAL per one-key batch, %d keys into a 20k-character document:\n%s", keys, b.String())
	if perKey := float64(total) / keys; perKey > maxOneKeyBatchLogBytes {
		t.Errorf("one-key batches logged %.1f B per key, over the %d B budget", perKey, maxOneKeyBatchLogBytes)
	}
	if worst > maxOneKeyBatchWorstLogBytes {
		t.Errorf("a one-key batch logged %d B, over the %d B budget", worst, maxOneKeyBatchWorstLogBytes)
	}
}

// newOneKeyDoc opens an in-memory database with a fake-clock engine and a
// document holding 20k characters typed by alice: the setting of the
// one-key batch tests.
func newOneKeyDoc(t *testing.T) (*wal.MemStore, *db.Database, *Document) {
	t.Helper()
	store := wal.NewMemStore()
	database, err := db.OpenWith(storage.NewMemDisk(), store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	e, err := NewEngine(database, util.NewFakeClock(time.Unix(1_000_000, 0).UTC(), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.CreateDocument("alice", "bytes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("alice", 0, strings.Repeat("lorem ipsum ", 20_000/12+1)[:20_000]); err != nil {
		t.Fatal(err)
	}
	return store, database, d
}

// maxOneKeyBatchAllocs bounds the heap allocations of one typed character
// committed as its own batch, end to end through Document.Apply: staging,
// the row writes and their locks, the WAL append, the durability wait and
// the snapshot publish. Re-reading and decoding every updated row, string
// lock keys and re-indexing unchanged keys cost 323. Without them it was
// 167. Copying each text mirror node at most once per snapshot, not once
// per root path a key walks (five), brings it to ~104. Writing the new row
// once, with no neighbour row rewritten, brings it to 83.
// Leaving the docs row alone unless the author is new brings it to 72.
// A B+-tree text mirror, which copies one leaf and the inner nodes above
// it instead of a treap path, brings it to 56. Encoding the character and
// op rows column by column instead of boxing each value into a db.Row,
// keeping index values inline in typed B-trees, reusing the WAL's batch
// buffer and the transaction's inline undo entries bring it to 26.
const maxOneKeyBatchAllocs = 28

// TestOneKeyBatchAllocs types one-key batches between two existing
// characters of the same 20k-character document as TestOneKeyBatchLogBytes,
// two authors alternating, and fails if a batch allocates more than
// maxOneKeyBatchAllocs times on average.
func TestOneKeyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	_, _, d := newOneKeyDoc(t)
	i := 0
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		user := [2]string{"alice", "bob"}[i%2]
		if _, e := d.InsertText(user, 1+(i*7919)%(d.Len()-1), "k"); e != nil && err == nil {
			err = e
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f allocations per one-key batch", allocs)
	if allocs > maxOneKeyBatchAllocs {
		t.Errorf("a one-key batch allocated %.1f times, over the budget of %d", allocs, maxOneKeyBatchAllocs)
	}
}
