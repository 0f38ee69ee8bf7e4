package texttree

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"tendax/internal/util"
)

func TestSnapshotIsolationFromLaterWrites(t *testing.T) {
	b, gen := bufWithText(t, "hello")
	s1 := b.Snapshot()
	if s1.Text() != "hello" || s1.Len() != 5 {
		t.Fatalf("snapshot text %q len %d", s1.Text(), s1.Len())
	}
	v1 := s1.Version()

	// A snapshot taken before a write must never observe the write.
	prev, err := b.PredecessorForInsert(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: '!', Author: "u2", Created: time.Unix(2, 0)}); err != nil {
		t.Fatal(err)
	}
	id, _ := b.IDAt(0)
	if err := b.Delete([]util.ID{id}, "u2", time.Unix(3, 0), nil); err != nil {
		t.Fatal(err)
	}
	if s1.Text() != "hello" || s1.Len() != 5 || s1.TotalLen() != 5 {
		t.Fatalf("snapshot observed later writes: %q", s1.Text())
	}
	if s1.Version() != v1 {
		t.Fatal("snapshot version moved")
	}
	if err := s1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	s2 := b.Snapshot()
	if s2.Text() != "ello!" {
		t.Fatalf("new snapshot text %q", s2.Text())
	}
	if s2.Version() <= v1 {
		t.Fatalf("version did not advance: %d <= %d", s2.Version(), v1)
	}
	// The frozen char records disagree across versions, as they must.
	c1, ok := s1.Char(id)
	if !ok || c1.Deleted {
		t.Fatal("old snapshot lost the pre-delete record")
	}
	c2, ok := s2.Char(id)
	if !ok || !c2.Deleted {
		t.Fatal("new snapshot missed the delete")
	}
}

func TestSnapshotRanksAndRanges(t *testing.T) {
	b, _ := bufWithText(t, "0123456789")
	id3, _ := b.IDAt(3)
	if err := b.Delete([]util.ID{id3}, "u", time.Unix(5, 0), nil); err != nil {
		t.Fatal(err)
	}
	s := b.Snapshot()
	if got := s.Slice(2, 4); got != "2456" {
		t.Fatalf("Slice = %q", got)
	}
	if ids := s.RangeIDs(0, 3); len(ids) != 3 {
		t.Fatalf("RangeIDs len %d", len(ids))
	}
	id4, _ := s.IDAt(3) // visible position 3 is now '4'
	ch, ok := s.Char(id4)
	if !ok || ch.Rune != '4' {
		t.Fatalf("Char(%v) = %q", id4, ch.Rune)
	}
	// A tombstone ranks where its text would resume; an unknown id (and
	// a repeated one) resolves like any other in the same walk.
	got := s.Resolve([]util.ID{id4, id3, util.ID(9999), id4})
	want := []Anchor{{3, true, true}, {3, false, true}, {}, {3, true, true}}
	if !slices.Equal(got, want) {
		t.Fatalf("Resolve = %v, want %v", got, want)
	}
	// Mirror of the buffer's positional queries.
	for pos := 0; pos < s.Len(); pos++ {
		want, _ := b.IDAt(pos)
		got, ok := s.IDAt(pos)
		if !ok || got != want {
			t.Fatalf("IDAt(%d) = %v, want %v", pos, got, want)
		}
	}
}

// TestSnapshotTimeTravelAgreement is the property test required by the
// snapshot work: a snapshot captured right after the op at time t must
// agree byte-for-byte with the live buffer's time-travel reconstruction
// TextAt(t), for every op in a random insert/delete history.
func TestSnapshotTimeTravelAgreement(t *testing.T) {
	rng := util.NewRand(41)
	var gen util.IDGen
	b := NewBuffer()
	type point struct {
		at   time.Time
		snap *Snapshot
		text string
	}
	var points []point
	now := int64(0)
	for step := 0; step < 600; step++ {
		now++
		at := time.Unix(now, 0)
		if b.Len() == 0 || rng.Intn(3) != 0 {
			pos := rng.Intn(b.Len() + 1)
			prev, err := b.PredecessorForInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			r := rune('a' + rng.Intn(26))
			if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: r, Author: "u", Created: at}); err != nil {
				t.Fatal(err)
			}
		} else {
			pos := rng.Intn(b.Len())
			id, _ := b.IDAt(pos)
			if err := b.Delete([]util.ID{id}, "u", at, nil); err != nil {
				t.Fatal(err)
			}
		}
		points = append(points, point{at: at, snap: b.Snapshot(), text: b.Text()})
	}
	for i, p := range points {
		if got := b.TextAt(p.at); got != p.snap.Text() {
			t.Fatalf("op %d: TextAt(%v) = %q, snapshot captured %q", i, p.at, clip(got, 60), clip(p.snap.Text(), 60))
		}
		if p.snap.Text() != p.text {
			t.Fatalf("op %d: snapshot drifted after later ops", i)
		}
		// Time travel *within* an old snapshot agrees with the even older
		// snapshot captured at that instant.
		if i > 0 {
			j := rng.Intn(i)
			if got := p.snap.TextAt(points[j].at); got != points[j].snap.Text() {
				t.Fatalf("op %d: snapshot TextAt(op %d) = %q, want %q", i, j, clip(got, 60), clip(points[j].snap.Text(), 60))
			}
		}
	}
}

// TestSnapshotRandomisedMatchesBuffer drives the buffer with random
// inserts, deletes and undeletes and verifies at every step that a fresh
// snapshot matches the live buffer exactly, and that a sample of old
// snapshots still pass their own invariants untouched.
func TestSnapshotRandomisedMatchesBuffer(t *testing.T) {
	rng := util.NewRand(13)
	var gen util.IDGen
	b := NewBuffer()
	var tombstones []util.ID
	type kept struct {
		snap *Snapshot
		text string
	}
	var old []kept
	now := int64(0)
	for step := 0; step < 2500; step++ {
		now++
		switch r := rng.Intn(10); {
		case b.Len() == 0 || r < 5:
			pos := rng.Intn(b.Len() + 1)
			prev, err := b.PredecessorForInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: rune('a' + rng.Intn(26)), Author: "u", Created: time.Unix(now, 0)}); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			pos := rng.Intn(b.Len())
			id, _ := b.IDAt(pos)
			if err := b.Delete([]util.ID{id}, "u", time.Unix(now, 0), nil); err != nil {
				t.Fatal(err)
			}
			tombstones = append(tombstones, id)
		default:
			if len(tombstones) == 0 {
				continue
			}
			id := tombstones[len(tombstones)-1]
			tombstones = tombstones[:len(tombstones)-1]
			if err := b.Undelete([]util.ID{id}, time.Unix(now, 0), nil); err != nil {
				t.Fatal(err)
			}
		}
		s := b.Snapshot()
		if s.Text() != b.Text() || s.Len() != b.Len() || s.TotalLen() != b.TotalLen() {
			t.Fatalf("step %d: snapshot/buffer mismatch", step)
		}
		if step%250 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			old = append(old, kept{snap: s, text: b.Text()})
		}
	}
	for i, k := range old {
		if k.snap.Text() != k.text {
			t.Fatalf("old snapshot %d drifted", i)
		}
		if err := k.snap.CheckInvariants(); err != nil {
			t.Fatalf("old snapshot %d: %v", i, err)
		}
	}
}

// TestBufferErrorPathsLeaveStateUnchanged covers the audited error paths:
// a failed insert (duplicate ID, unknown predecessor, or a key that would
// not put the insert in front of its anchor's first child) must leave the
// buffer, its version and its snapshot mirror untouched.
func TestBufferErrorPathsLeaveStateUnchanged(t *testing.T) {
	b, _ := bufWithText(t, "abc")
	v := b.Version()
	id0, _ := b.IDAt(0)
	if _, err := insertAfter(b, util.NilID, Char{ID: id0, Rune: 'x'}); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if _, err := insertAfter(b, util.ID(777), Char{ID: util.ID(888), Rune: 'x'}); err == nil {
		t.Fatal("insert after unknown predecessor succeeded")
	}
	if _, err := b.InsertRun(util.NilID, []Char{{ID: 888, Rune: 'x', Key: id0}, {ID: 889, Rune: 'y'}}); err == nil {
		t.Fatal("insert keyed behind the anchor's first child succeeded")
	}
	if err := b.Delete([]util.ID{util.ID(777)}, "u", time.Unix(9, 0), nil); err == nil {
		t.Fatal("delete of unknown id succeeded")
	}
	if err := b.Undelete([]util.ID{util.ID(777)}, time.Unix(9, 0), nil); err == nil {
		t.Fatal("undelete of unknown id succeeded")
	}
	if b.Version() != v {
		t.Fatal("failed mutations bumped the version")
	}
	if b.Text() != "abc" {
		t.Fatalf("failed mutations changed the text: %q", b.Text())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorNodesFitSizeClass: each mirror node must stay inside the
// allocation size class it is built for — a leaf, whose leafCap segments
// name a record, an offset and a count, in the 896 B class (16.6 B per
// segment when full), an inner node in the 896 B class — or every
// segment's heap, and every copy a key makes, grows with it.
func TestMirrorNodesFitSizeClass(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
	}{
		{"leaf", unsafe.Sizeof(leaf{}), 896},
		{"inner", unsafe.Sizeof(inner{}), 896},
	} {
		if c.size > c.class {
			t.Errorf("%s node is %d B, over the %d B size class", c.name, c.size, c.class)
		}
	}
}

// TestOneKeyInsertCopiesOnePath gates the allocations of one key typed
// right after a snapshot into a 40k-instance buffer. Copying every treap
// path a splice walked anew cost 94 allocations; copying each treap node
// at most once per generation, 23. The B+-tree mirror copies one leaf
// (two when the key splits it) and the two inner nodes above it: 6 with a
// record and a treap node per key. A record of one, and extents taken
// from blocks for the two the key cuts its run into, made it 5 while a
// leaf held a slot per instance: the loaded leaves were full, and most
// keys split one. Segments make it 4: a key adds two segments to a leaf,
// and a loaded leaf splits at its first key only. The limit is that plus
// 10 %. The text alternates authors every ten instances, so
// its 4 000 records are 4 000 mirror segments, three levels deep: one
// typed run would be one segment under a single leaf, and the path one
// node.
func TestOneKeyInsertCopiesOnePath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const n, limit = 40000, 4.4
	created := time.Unix(1, 0)
	rows := make([]Char, n)
	for i := range rows {
		id := util.ID(i + 1)
		rows[i] = Char{ID: id, Rune: 'a' + rune(i%26), Author: authors[i/10%2], Created: created}
		rows[i].After, rows[i].Key = id-1, id
	}
	b, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	rng := util.NewRand(7)
	next := util.ID(n + 1)
	key := make([]Char, 1)
	allocs := testing.AllocsPerRun(200, func() {
		b.Snapshot()
		prev := util.ID(1 + rng.Intn(n))
		key[0] = Char{ID: next, Rune: 'k', Author: "bob", Created: created}
		if _, err := b.InsertRun(prev, key); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := shape(b.root); h != 3 {
		t.Fatalf("the mirror is %d levels high, want 3", h)
	}
	t.Logf("%.1f allocations per key typed after a snapshot", allocs)
	if allocs > limit {
		t.Fatalf("one key after a snapshot allocated %.1f times, limit %.1f", allocs, limit)
	}
}

func TestSnapshotLoadBuildsMirror(t *testing.T) {
	b, gen := bufWithText(t, "persistent mirror")
	id, _ := b.IDAt(4)
	b.Delete([]util.ID{id}, "u", time.Unix(5, 0), nil)
	prev, _ := b.PredecessorForInsert(0)
	insertAfter(b, prev, Char{ID: gen.Next(), Rune: '>', Author: "u", Created: time.Unix(6, 0)})

	b2, err := Load(b.AllChars())
	if err != nil {
		t.Fatal(err)
	}
	s := b2.Snapshot()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Text() != b.Text() {
		t.Fatalf("loaded mirror text %q, want %q", s.Text(), b.Text())
	}
	if !slices.Equal(s.VisibleIDs(), b.VisibleIDs()) || s.TotalLen() != b.TotalLen() {
		t.Fatal("loaded buffer holds other instances")
	}
}
