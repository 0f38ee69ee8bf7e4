package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tendax/internal/db"
	"tendax/internal/storage"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// TestReopenMintsAboveNewestRun reopens a store whose highest IDs are the
// later instances of a multi-rune run — the op rows that outranked them are
// dropped, so the run's first ID, its row's key, is below them — and
// inserts: every new ID must lie above the run, which is only so if the
// generator is seeded from the newest row's last instance rather than its
// key. A dense and a strided (sharded) generator are both checked.
func TestReopenMintsAboveNewestRun(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("stride %d", shards), func(t *testing.T) {
			disk, store := storage.NewMemDisk(), wal.NewMemStore()
			open := func() (*db.Database, *Engine) {
				database, err := db.OpenWith(disk, store, db.Options{})
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngineShard(database, nil, shards-1, shards)
				if err != nil {
					t.Fatal(err)
				}
				return database, e
			}
			database, e := open()
			d, err := e.CreateDocument("alice", "runs")
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Apply("alice", []EditOp{{Kind: EditInsert, Pos: 0, Text: "a run of typed text"}})
			if err != nil {
				t.Fatal(err)
			}
			run := res[0].IDs
			last := run[len(run)-1]
			err = e.withTxn(func(tx *txn.Txn) error {
				for _, op := range d.ops {
					if err := e.tOps.DeleteByPK(tx, int64(op.ID)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, tbl := range []*db.Table{e.tDocs, e.tChars, e.tSpans, e.tOps, e.tOpChunks, e.tArchive} {
				if pk := util.ID(tbl.MaxPK()); pk >= last {
					name := []string{"docs", "chars", "spans", "ops", "opchunks", "archive"}[i]
					t.Fatalf("table %s holds key %v, not below the run's last instance %v", name, pk, last)
				}
			}
			if err := database.Close(); err != nil {
				t.Fatal(err)
			}

			database, e = open()
			defer database.Close()
			d, err = e.OpenDocument(d.ID())
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range []int{0, 5, d.Len()} {
				res, err := d.Apply("bob", []EditOp{{Kind: EditInsert, Pos: pos, Text: "new"}})
				if err != nil {
					t.Fatalf("insert at %d after reopening: %v", pos, err)
				}
				for _, id := range append(res[0].IDs, res[0].OpID) {
					if id <= last {
						t.Fatalf("minted %v after reopening, inside or below the run %v..%v", id, run[0], last)
					}
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowRangeHoldsOnlyItsInstances gives one document's batch two
// instances typed one after the other whose IDs another document's insert
// split, as when it mints between the batch's two insert ops: the two may
// not share a row, whose ID range would then hold the other document's
// row. Both documents are reopened, the later instance is looked up by
// ID, deleted and reopened again.
func TestRowRangeHoldsOnlyItsInstances(t *testing.T) {
	disk, store := storage.NewMemDisk(), wal.NewMemStore()
	clock := util.NewFakeClock(time.Unix(3_000_000, 0).UTC(), time.Millisecond)
	open := func() (*db.Database, *Engine) {
		database, err := db.OpenWith(disk, store, db.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(database, clock)
		if err != nil {
			t.Fatal(err)
		}
		return database, e
	}
	database, e := open()
	a, err := e.CreateDocument("ann", "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CreateDocument("bo", "b")
	if err != nil {
		t.Fatal(err)
	}
	x, between, y := e.ids.Next(), e.ids.Next(), e.ids.Next()
	now := clock.Now()
	ax := texttree.Char{ID: x, Rune: 'x', Author: "ann", Created: now, Key: x}
	ay := texttree.Char{ID: y, Rune: 'y', Author: "ann", Created: now, After: x, Key: y}
	bc := texttree.Char{ID: between, Rune: 'c', Author: "bo", Created: now, Key: between}
	err = e.withTxn(func(tx *txn.Txn) error {
		rb := rowBuf{enc: e.tChars.Encoder(1)}
		if err := a.insertRuns(tx, &rb, []*texttree.Char{&ax, &ay}); err != nil {
			return err
		}
		return b.insertRuns(tx, &rb, []*texttree.Char{&bc})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}

	database, e = open()
	defer database.Close()
	if a, err = e.OpenDocument(a.ID()); err != nil {
		t.Fatal(err)
	}
	if b, err = e.OpenDocument(b.ID()); err != nil {
		t.Fatal(err)
	}
	if a.Text() != "xy" || b.Text() != "c" {
		t.Fatalf("reopened texts %q and %q, want %q and %q", a.Text(), b.Text(), "xy", "c")
	}
	for _, c := range []struct {
		id  util.ID
		doc *Document
	}{{x, a}, {between, b}, {y, a}} {
		doc, _, err := e.CharByID(c.id)
		if err != nil || doc != c.doc.ID() {
			t.Fatalf("CharByID(%v) = document %v, %v; want %v", c.id, doc, err, c.doc.ID())
		}
	}
	if _, err := a.DeleteRange("ann", 1, 1); err != nil {
		t.Fatalf("delete of %v: %v", y, err)
	}
	if _, meta, err := e.CharByID(y); err != nil || !meta.Deleted {
		t.Fatalf("CharByID(%v) after its delete = %+v, %v", y, meta, err)
	}
	checkReopened(t, "after the delete", disk, store, a)
	checkReopened(t, "the other document", disk, store, b)
}

// TestRunRowsSurviveReopen is the reopen oracle of the chars table's run
// rows. Seeded sequences of edit batches start with a fixed prologue — a
// typed run longer than a row's text cap, in several scripts, a delete in
// its middle, the delete undone and redone, a paste whose sources do not
// form a progression, a compaction that archives the deleted span and
// re-anchors the rest of the run, and an undo that rehydrates it — and go
// on with random typing, pastes, deletes, undo, redo and compaction. After
// every batch a crash image of the store is recovered and reopened: every
// instance, hot and archived, must have every field as the live document
// has it, the op log must list the same IDs, and both documents must pass
// CheckInvariants.
func TestRunRowsSurviveReopen(t *testing.T) {
	seeds, steps := []uint64{1, 2, 3, 4}, 40
	if testing.Short() {
		seeds, steps = seeds[:2], 20
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			disk, store := storage.NewMemDisk(), wal.NewMemStore()
			database, err := db.OpenWith(disk, store, db.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer database.Close()
			clock := util.NewFakeClock(time.Unix(3_000_000, 0).UTC(), time.Millisecond)
			e, err := NewEngine(database, clock)
			if err != nil {
				t.Fatal(err)
			}
			d, err := e.CreateDocument("ann", "oracle")
			if err != nil {
				t.Fatal(err)
			}
			rng := util.NewRand(seed)
			step := 0
			check := func(what string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("step %d, %s: %v", step, what, err)
				}
				checkReopened(t, fmt.Sprintf("step %d, %s", step, what), disk, store, d)
				step++
			}

			// The prologue.
			_, err = d.InsertText("ann", 0, runText(rng, 700))
			check("typed run past the text cap", err)
			_, err = d.DeleteRange("bo", 300, 6)
			check("delete inside the run", err)
			_, err = d.UndoLocal("bo")
			check("undo of the delete", err)
			_, err = d.RedoLocal("bo")
			check("redo of the delete", err)
			_, err = d.InsertText("ann", 100, "XYZ")
			check("insert inside the run", err)
			clip, err := d.Copy("bo", 95, 20)
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.Paste("bo", 0, clip)
			check("paste across the insert", err)
			var stats CompactStats
			stats, err = d.Compact(clock.Now())
			if err == nil && stats.Archived != 6 {
				err = fmt.Errorf("archived %d instances, want the 6 deleted", stats.Archived)
			}
			check("compaction inside the run", err)
			_, err = d.UndoLocal("bo") // the paste
			check("undo of the paste", err)
			_, err = d.UndoLocal("bo") // the redone delete: rehydration
			check("undo of the archived delete", err)

			users := []string{"ann", "bo"}
			for i := 0; i < steps; i++ {
				user := users[rng.Intn(2)]
				switch k := rng.Intn(10); {
				case k < 3:
					n := []int{1, 2, 9, 60, 300}[rng.Intn(5)]
					ops := []EditOp{{Kind: EditInsert, Pos: rng.Intn(d.Len() + 1), Text: runText(rng, n)}}
					if rng.Intn(3) == 0 {
						ops = append(ops, EditOp{Kind: EditInsert, AnchorPrev: true, Text: runText(rng, 1+rng.Intn(5))})
					}
					_, err = d.Apply(user, ops)
					check("typing", err)
				case k < 4:
					n := 1 + rng.Intn(min(30, d.Len()))
					clip, err := d.Copy(user, rng.Intn(d.Len()-n+1), n)
					if err != nil {
						t.Fatal(err)
					}
					_, err = d.Paste(user, rng.Intn(d.Len()+1), clip)
					check("paste", err)
				case k < 7:
					n := 1 + rng.Intn(min(12, d.Len()))
					_, err = d.DeleteRange(user, rng.Intn(d.Len()-n+1), n)
					check("delete", err)
				case k < 8:
					if _, err = d.UndoLocal(user); err == ErrNothingToUndo {
						err = nil
					}
					check("undo", err)
				case k < 9:
					if _, err = d.RedoLocal(user); err == ErrNothingToRedo {
						err = nil
					}
					check("redo", err)
				default:
					_, err = d.Compact(clock.Now())
					check("compaction", err)
				}
			}
		})
	}
}

// runText returns n runes of text, mostly letters and spaces with some
// runes of two, three and four bytes.
func runText(rng *util.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			b.WriteRune('é')
		case 1:
			b.WriteRune('€')
		case 2:
			b.WriteRune('😀')
		case 3:
			b.WriteByte(' ')
		default:
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// checkReopened recovers a crash image of the store (a copy of the disk
// and of the log, which no checkpoint has truncated) and compares d's
// document in it with d.
func checkReopened(t *testing.T, label string, disk *storage.MemDisk, store *wal.MemStore, d *Document) {
	t.Helper()
	logBytes, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	crash := wal.NewMemStore()
	if err := crash.Append(logBytes); err != nil {
		t.Fatal(err)
	}
	database, err := db.OpenWith(disk.SnapshotHead(math.MaxInt), crash, db.Options{})
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	defer database.Close()
	e, err := NewEngine(database, d.eng.clock)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := e.OpenDocument(d.ID())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if diff := documentDiff(d, got); diff != "" {
		t.Fatalf("%s: reopened document differs: %s", label, diff)
	}
	for _, doc := range []*Document{d, got} {
		if err := doc.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// documentDiff describes the first difference between two handles on one
// document, or returns "": every hot instance in order and every archived
// one by anchor, field by field (instants compared with Equal), and the op
// log.
func documentDiff(a, b *Document) string {
	ba, err := a.buffer()
	if err != nil {
		return err.Error()
	}
	bb, err := b.buffer()
	if err != nil {
		return err.Error()
	}
	ha, hb := ba.AllChars(), bb.AllChars()
	if len(ha) != len(hb) {
		return fmt.Sprintf("%d hot instances, reopened %d", len(ha), len(hb))
	}
	for i := range ha {
		if !sameChar(ha[i], hb[i]) {
			return fmt.Sprintf("hot instance %d is %+v, reopened %+v", i, ha[i], hb[i])
		}
	}
	aa, ab := ba.Archive(), bb.Archive()
	if aa.Len() != ab.Len() {
		return fmt.Sprintf("%d archived instances, reopened %d", aa.Len(), ab.Len())
	}
	for _, anchor := range aa.Anchors() {
		ra, rb := aa.Run(anchor), ab.Run(anchor)
		if len(ra) != len(rb) {
			return fmt.Sprintf("archive run at %v holds %d, reopened %d", anchor, len(ra), len(rb))
		}
		for i := range ra {
			// An archived instance's place is its run's: After and Key are
			// not stored.
			ca, cb := *ra[i], *rb[i]
			ca.After, ca.Key, cb.After, cb.Key = 0, 0, 0, 0
			if !sameChar(ca, cb) {
				return fmt.Sprintf("archived instance %d at %v is %+v, reopened %+v", i, anchor, ca, cb)
			}
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(a.ops) != len(b.ops) {
		return fmt.Sprintf("%d ops, reopened %d", len(a.ops), len(b.ops))
	}
	for i, op := range a.ops {
		got := b.ops[i]
		if op != got {
			return fmt.Sprintf("op %d is %+v, reopened %+v", i, op, got)
		}
		// The heads hold no IDs: each side's row must list the same IDs,
		// as many as the heads count.
		want, errA := a.opIDs(op.ID)
		ids, errB := b.opIDs(got.ID)
		if errA != nil || errB != nil {
			return fmt.Sprintf("op %d's row reads %v, reopened %v", i, errA, errB)
		}
		if !slices.Equal(want.AppendTo(nil), ids.AppendTo(nil)) || ids.Len() != int(got.Chars) {
			return fmt.Sprintf("op %d (%d IDs) lists %v, reopened %v", i, got.Chars, want, ids)
		}
	}
	return ""
}

// sameChar reports whether a and b agree on every field, instants compared
// with Equal.
func sameChar(a, b texttree.Char) bool {
	return a.ID == b.ID && a.Rune == b.Rune && a.Author == b.Author && a.Created.Equal(b.Created) &&
		a.After == b.After && a.Key == b.Key && a.Deleted == b.Deleted && a.DeletedBy == b.DeletedBy &&
		a.DeletedAt.Equal(b.DeletedAt) && a.Restored.Equal(b.Restored) &&
		a.SourceDoc == b.SourceDoc && a.SourceChar == b.SourceChar
}

// TestSplitDeleteCrashPoints cuts the log of one batch that deletes from
// the middle of a run — the deleted piece and the rest inserted, the row
// updated to its first piece, the op row — at every record and frame
// boundary (offsets from wal.Walk) and at every byte of the last frame,
// and recovers each cut: the document must come back exactly as before
// the batch up to the end of its commit record, and exactly as after it
// there.
func TestSplitDeleteCrashPoints(t *testing.T) {
	disk, store := storage.NewMemDisk(), wal.NewMemStore()
	database, err := db.OpenWith(disk, store, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	clock := util.NewFakeClock(time.Unix(3_000_000, 0).UTC(), time.Millisecond)
	e, err := NewEngine(database, clock)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.CreateDocument("ann", "crash")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertText("ann", 0, strings.Repeat("split me in the middle ", 8)); err != nil {
		t.Fatal(err)
	}
	before := tombstoneView(t, d)
	image := disk.SnapshotHead(math.MaxInt) // nothing below is written back before the cuts
	mark := store.Len()
	if _, err := d.DeleteRange("bo", 60, 6); err != nil {
		t.Fatal(err)
	}
	after := tombstoneView(t, d)
	data, err := store.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	// The batch's records, their ends and what they are, and where the
	// last frame starts.
	type rec struct {
		end  int
		what string
	}
	var recs []rec
	lastStart, whole := 0, 0
	err = wal.Walk(data, func(r *wal.Record, end, frameEnd int) bool {
		if end > mark {
			what := r.Type.String()
			if r.Type == wal.RecUpdate {
				what += fmt.Sprintf(" op %d table %d", r.Op, r.Owner)
			}
			recs = append(recs, rec{end, what})
		}
		if end == frameEnd {
			lastStart, whole = whole, frameEnd
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if whole != len(data) {
		t.Fatalf("the frames end at byte %d, the log holds %d bytes", whole, len(data))
	}
	inserts, updates := 0, 0
	for _, r := range recs {
		if strings.Contains(r.what, fmt.Sprintf("op %d table %d", wal.OpInsert, e.tChars.ID())) {
			inserts++
		}
		if strings.Contains(r.what, fmt.Sprintf("op %d table %d", wal.OpUpdate, e.tChars.ID())) {
			updates++
		}
	}
	if inserts != 2 || updates != 1 {
		t.Fatalf("the batch logged %d chars inserts and %d updates, want a split: 2 and 1 (%v)", inserts, updates, recs)
	}

	cuts := []int{mark}
	for _, r := range recs {
		cuts = append(cuts, r.end)
	}
	for cut := max(lastStart, mark); cut <= len(data); cut++ {
		cuts = append(cuts, cut)
	}
	slices.Sort(cuts)
	for _, cut := range slices.Compact(cuts) {
		i, _ := slices.BinarySearchFunc(recs, cut, func(r rec, cut int) int { return r.end - cut })
		what := recs[i].what
		want, state := before, "before"
		if cut == len(data) {
			want, state = after, "after"
		}
		crash := wal.NewMemStore()
		if err := crash.Append(data[:cut]); err != nil {
			t.Fatal(err)
		}
		db2, err := db.OpenWith(image.SnapshotHead(math.MaxInt), crash, db.Options{})
		if err != nil {
			t.Fatalf("cut at byte %d (in or at the end of %s): recovery: %v", cut, what, err)
		}
		e2, err := NewEngine(db2, clock)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := e2.OpenDocument(d.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got := tombstoneView(t, d2); got != want {
			t.Fatalf("cut at byte %d (in or at the end of %s): recovered\n%s\nwant the state %s the batch:\n%s", cut, what, got, state, want)
		}
		if err := d2.CheckInvariants(); err != nil {
			t.Fatalf("cut at byte %d (in or at the end of %s): %v", cut, what, err)
		}
		db2.Close()
	}
}

// TestOpStretches round-trips op payloads, util.IDs' payloads based at the
// op's ID — an insert's run, descending and repeated IDs, IDs above the
// op's own, a shuffled list — and checks that util.PayloadLen counts them,
// that a run below its op is one stretch of three bytes and that a
// truncated stretch is refused.
func TestOpStretches(t *testing.T) {
	const op = util.ID(5000)
	run := make([]util.ID, 40)
	for i := range run {
		run[i] = op - 40 + util.ID(i)
	}
	shuffled := make([]util.ID, 2000)
	for i, j := range perm(util.NewRand(3), len(shuffled)) {
		shuffled[i] = util.ID(100 + 3*j)
	}
	for _, tc := range []struct {
		name string
		ids  []util.ID
	}{
		{"none", nil},
		{"one", []util.ID{op - 1}},
		{"run", run},
		{"descending", []util.ID{90, 80, 70, 60, 55, 50}},
		{"repeated", []util.ID{7, 7, 7, 9}},
		{"above the op", []util.ID{op + 10, op + 12, 1}},
		{"shuffled", shuffled},
	} {
		payload := util.IDsOf(tc.ids).AppendPayload(nil, op)
		got, err := util.DecodeIDs(payload, op)
		if err != nil || !slices.Equal(got.AppendTo(nil), tc.ids) {
			t.Fatalf("%s: decoded %v, %v from %x; want %v", tc.name, got.AppendTo(nil), err, payload, tc.ids)
		}
		if n, err := util.PayloadLen(payload); err != nil || n != len(tc.ids) {
			t.Fatalf("%s: counted %d, %v; want %d", tc.name, n, err, len(tc.ids))
		}
	}
	if n := len(util.IDsOf(run).AppendPayload(nil, op)); n != 3 {
		t.Fatalf("a run of 40 IDs below its op takes %d bytes, want 3", n)
	}
	if _, err := util.DecodeIDs([]byte{2, 4}, op); err == nil {
		t.Fatal("a stretch of two without its step decoded")
	}
	if _, err := util.PayloadLen([]byte{2, 4}); err == nil {
		t.Fatal("a stretch of two without its step counted")
	}
}
