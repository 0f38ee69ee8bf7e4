package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

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
// Leaving the docs row alone unless the author is new costs ~228 B. A
// chars row that is a run (one deletion-state column, empty until a
// delete) and an op row naming its IDs as one stretch cost ~212 B. Rows
// whose ints are varints and whose lengths are uvarints, not 8 and 4
// fixed bytes, cost ~125 B. No begin record (a transaction's first record
// opens it), an op kind coded in one byte, not spelt, and a commit record
// without a PrevLSN cost ~104 B. One frame per batch, not per record, with
// the LSNs implied by the records' places in it, costs ~85.1 B; the
// budget is that plus 5 %.
const maxOneKeyBatchLogBytes = 89

// maxOneKeyBatchWorstLogBytes bounds the WAL of any single one-key batch.
// The worst is an author's first batch, whose document-row update also
// appends the name to the authors column: ~377 B with the two neighbour
// relinks, ~325 B without, ~261 B with a docs row of six columns, ~244 B
// with the run row and stretch-coded op row, ~156 B with varint rows, ~136
// B with no begin record, a one-byte op kind and a shorter commit, 107 B
// with one frame per batch and implied LSNs; the budget is that plus 10 %.
const maxOneKeyBatchWorstLogBytes = 117

// TestOneKeyBatchLogBytes types one-key batches between two existing
// characters of a 20k-character document, two authors alternating, and
// fails if the keys log more than maxOneKeyBatchLogBytes each on average,
// any batch logs more than maxOneKeyBatchWorstLogBytes, or a batch by an
// author the docs row already lists writes that row. It logs what the
// bytes are: records and bytes per key, by record type and table.
func TestOneKeyBatchLogBytes(t *testing.T) {
	store, database, d := newOneKeyDoc(t)

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

	lines, total := logLines(t, d.eng, store, from, func(r *wal.Record, table string) {
		batch, _ := slices.BinarySearch(starts, r.LSN+1)
		if batch--; table == "docs" && listed[batch] {
			t.Errorf("batch %d wrote the docs row, but its author was listed already", batch)
		}
	})
	t.Logf("WAL per one-key batch, %d keys into a 20k-character document:\n%s (worst batch %d B)", keys, lines.per(keys), worst)
	if perKey := float64(total) / keys; perKey > maxOneKeyBatchLogBytes {
		t.Errorf("one-key batches logged %.1f B per key, over the %d B budget", perKey, maxOneKeyBatchLogBytes)
	}
	if worst > maxOneKeyBatchWorstLogBytes {
		t.Errorf("a one-key batch logged %d B, over the %d B budget", worst, maxOneKeyBatchWorstLogBytes)
	}
}

// maxRunBatchLogBytes bounds the WAL a typed character costs in a batch of
// 128 keys, the bulk regime: one chars row per run and one op row whose
// IDs are one stretch, in varint rows, with no begin record and a one-byte
// op kind, take ~1.8 B per key (~1.7 B in one frame per batch); the
// budget is that plus 10 %. With a begin
// record and a spelt kind it was ~2.0 B, with fixed-width rows ~2.7 B.
// While every character was a row of its own and an op row listed 8 bytes
// per ID, it was ~123 B.
const maxRunBatchLogBytes = 2.0

// TestRunBatchLogBytes types 128-key batches at spread positions of a
// 20k-character document, two authors alternating, and fails if they log
// more than maxRunBatchLogBytes per key. It logs what the bytes are.
func TestRunBatchLogBytes(t *testing.T) {
	store, database, d := newOneKeyDoc(t)
	const batches, keys = 40, 128
	text := strings.Repeat("dolor sit amet ", keys/15+1)[:keys]
	from := database.Log().NextLSN()
	for i := 0; i < batches; i++ {
		user := [2]string{"alice", "bob"}[i%2]
		if _, err := d.InsertText(user, 1+(i*7919)%(d.Len()-1), text); err != nil {
			t.Fatal(err)
		}
	}
	lines, total := logLines(t, d.eng, store, from, nil)
	t.Logf("WAL per key of %d-key batches, %d batches into a 20k-character document:\n%s", keys, batches, lines.per(batches*keys))
	if perKey := float64(total) / (batches * keys); perKey > maxRunBatchLogBytes {
		t.Errorf("%d-key batches logged %.2f B per key, over the %.1f B budget", keys, perKey, maxRunBatchLogBytes)
	}
}

// logLines sums the frames of store's log from LSN from on by record type,
// page operation and table, a record's bytes running from the end of the
// one before it: a frame's own bytes (length, checksum, tag and first
// LSN) count with its first record. It calls each, if not nil, with every
// update or compensation record and its table, and returns the sums and
// the total.
func logLines(t *testing.T, e *Engine, store *wal.MemStore, from wal.LSN, each func(r *wal.Record, table string)) (logSums, int) {
	t.Helper()
	tables := map[uint64]string{}
	for name, tbl := range map[string]*db.Table{
		"docs": e.tDocs, "chars": e.tChars, "spans": e.tSpans, "ops": e.tOps, "opchunks": e.tOpChunks,
		"versions": e.tVersions, "reads": e.tReads, "props": e.tProps, "archive": e.tArchive,
	} {
		tables[tbl.ID()] = name
	}
	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sums := logSums{}
	add := func(kind string, bytes int) {
		if sums[kind] == nil {
			sums[kind] = &logSum{}
		}
		sums[kind].records++
		sums[kind].bytes += bytes
	}
	total, prev := 0, 0
	err = wal.Walk(data, func(r *wal.Record, end, _ int) bool {
		bytes := end - prev
		prev = end
		if r.LSN < from {
			return true
		}
		kind := r.Type.String()
		if r.Type == wal.RecUpdate || r.Type == wal.RecCLR {
			kind = fmt.Sprintf("%s %s %s", kind, [...]string{"", "insert", "update", "delete"}[r.Op], tables[r.Owner])
			if each != nil {
				each(r, tables[r.Owner])
			}
		}
		add(kind, bytes)
		total += bytes
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums, total
}

// logSums holds the records and bytes of each kind of log record.
type logSums map[string]*logSum

type logSum struct{ records, bytes int }

// per renders the sums per unit (a key, a batch), largest first, and
// their total.
func (s logSums) per(units int) string {
	kinds := make([]string, 0, len(s))
	total := 0
	for k, l := range s {
		kinds = append(kinds, k)
		total += l.bytes
	}
	sort.Slice(kinds, func(i, j int) bool { return s[kinds[i]].bytes > s[kinds[j]].bytes })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %9s\n", "record per unit", "count", "B/unit")
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-28s %9.2f %9.1f\n", k, float64(s[k].records)/float64(units), float64(s[k].bytes)/float64(units))
	}
	fmt.Fprintf(&b, "%-28s %9s %9.1f", "total", "", float64(total)/float64(units))
	return b.String()
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
// buffer and the transaction's inline undo entries bring it to 26. Packing
// the index B-trees' keys into their leaves' arenas, so an index entry
// allocates no key copy, brings it to 22. Keeping the key as a record of
// one in the text buffer, with no treap node or ID-map entry of its own,
// brings it to 21. Writing the op row's IDs as stretches into a stack
// buffer, not a fresh slice of 8-byte IDs, brings it to 20. Sharing the
// insert's one ID slice between the op log, the published item and the
// result brings it to 19. Staging the op's log record in the pooled batch
// state, not in an allocation of its own, brings it to 18. Registering
// the rows' undo entries as values in the transaction's inline buffer,
// not as closures, and encoding the rows into the pooled batch state's
// buffers bring it to 12. A text mirror that holds a segment per record
// stretch, not a slot per character, brings it to 10: the key copies a
// leaf and the root of a two-level tree, not a path of three nodes. The
// budget is that plus 10 %, rounded down. (Counts until here are
// testing.AllocsPerRun's floored mean; the exact mean the gate reads
// measured 10.61.)
const maxOneKeyBatchAllocs = 11

// maxRunBatchAllocs bounds the heap allocations of a 128-key batch, the
// bulk regime, typed through the same path. Converting the inserted text
// to a []rune, which a text over 32 runes puts on the heap, cost 17.
// Decoding it in the staging loop brings it to 16. A text mirror that
// holds a segment per record stretch brings it to 11: the run is one
// segment, where its 128 slots overflowed the leaf they landed in into
// new leaves. Ten per cent more, rounded down, would be 12 and let an
// allocation back in, so the budget is the measured count: 11 while it
// was testing.AllocsPerRun's floored mean, and the exact mean, 11.64,
// rounded up to a tenth since.
const maxRunBatchAllocs = 11.7

// TestOneKeyBatchAllocs types one-key batches between two existing
// characters of the same 20k-character document as TestOneKeyBatchLogBytes,
// two authors alternating, and fails if a batch allocates more than
// maxOneKeyBatchAllocs times on average (the exact mean, mallocsPerRun);
// then 128-key batches the same way, against maxRunBatchAllocs.
func TestOneKeyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	run := strings.Repeat("dolor sit amet ", 128/15+1)[:128]
	for _, c := range []struct {
		text   string
		budget float64
	}{{"k", maxOneKeyBatchAllocs}, {run, maxRunBatchAllocs}} {
		var err error
		allocs := mallocsPerRun(200, func() func() {
			_, _, d := newOneKeyDoc(t)
			i := 0
			return func() {
				user := [2]string{"alice", "bob"}[i%2]
				if _, e := d.InsertText(user, 1+(i*7919)%(d.Len()-1), c.text); e != nil && err == nil {
					err = e
				}
				i++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := utf8.RuneCountInString(c.text)
		t.Logf("%.2f allocations per %d-key batch", allocs, keys)
		if allocs > c.budget {
			t.Errorf("a %d-key batch allocated %.2f times, over the budget of %v", keys, allocs, c.budget)
		}
	}
}
