package texttree

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tendax/internal/util"
)

// insertAfter inserts ch alone right after prev (NilID = the front): a run
// of one.
func insertAfter(b *Buffer, prev util.ID, ch Char) (util.ID, error) {
	return b.InsertRun(prev, []Char{ch})
}

// compact plans and applies one compaction pass, as core does around its
// transaction, and returns the number of instances archived.
func compact(b *Buffer, horizon time.Time) int {
	plan := b.PlanCompaction(horizon)
	if plan == nil {
		return 0
	}
	n := 0
	for _, r := range plan.Runs {
		n += len(r.Chars)
	}
	b.ApplyCompaction(plan)
	return n
}

func bufWithText(t *testing.T, text string) (*Buffer, *util.IDGen) {
	t.Helper()
	b := NewBuffer()
	var gen util.IDGen
	prev := util.NilID
	for _, r := range text {
		id := gen.Next()
		if _, err := insertAfter(b, prev, Char{ID: id, Rune: r, Author: "u1", Created: time.Unix(1, 0)}); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	return b, &gen
}

func TestBufferInsertAndText(t *testing.T) {
	b, _ := bufWithText(t, "hello")
	if b.Text() != "hello" {
		t.Fatalf("Text = %q", b.Text())
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferInsertMiddleViaPredecessor(t *testing.T) {
	b, gen := bufWithText(t, "held")
	// Insert 'l' at position 3 -> "hell", then 'o' at 4 -> ... build "hello world" piecemeal.
	prev, err := b.PredecessorForInsert(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: 'l', Author: "u2", Created: time.Unix(2, 0)}); err != nil {
		t.Fatal(err)
	}
	if b.Text() != "helld" {
		t.Fatalf("Text = %q, want helld", b.Text())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferDeleteUndelete(t *testing.T) {
	b, _ := bufWithText(t, "abcdef")
	id, _ := b.IDAt(2) // 'c'
	if err := b.Delete([]util.ID{id}, "u2", time.Unix(5, 0), nil); err != nil {
		t.Fatal(err)
	}
	if b.Text() != "abdef" {
		t.Fatalf("Text after delete = %q", b.Text())
	}
	if b.TotalLen() != 6 {
		t.Fatal("tombstone was physically removed")
	}
	if err := b.Undelete([]util.ID{id}, time.Unix(9, 0), nil); err != nil {
		t.Fatal(err)
	}
	if b.Text() != "abcdef" {
		t.Fatalf("Text after undelete = %q", b.Text())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferDeleteIsIdempotent(t *testing.T) {
	b, _ := bufWithText(t, "ab")
	id, _ := b.IDAt(0)
	if err := b.Delete([]util.ID{id}, "u1", time.Unix(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete([]util.ID{id}, "u2", time.Unix(3, 0), nil); err != nil {
		t.Fatal(err)
	}
	ch, _ := b.Char(id)
	if ch.DeletedBy != "u1" {
		t.Fatal("second delete overwrote tombstone metadata")
	}
}

func TestBufferInsertAfterTombstone(t *testing.T) {
	b, gen := bufWithText(t, "ab")
	id0, _ := b.IDAt(0)
	if err := b.Delete([]util.ID{id0}, "u1", time.Unix(2, 0), nil); err != nil {
		t.Fatal(err)
	}
	// Chain insert directly after the tombstone.
	if _, err := insertAfter(b, id0, Char{ID: gen.Next(), Rune: 'X', Author: "u1", Created: time.Unix(3, 0)}); err != nil {
		t.Fatal(err)
	}
	if b.Text() != "Xb" {
		t.Fatalf("Text = %q, want Xb", b.Text())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferTextAtTimeTravel(t *testing.T) {
	b := NewBuffer()
	var gen util.IDGen
	prev := util.NilID
	// t=1..5: type "abcde", one char per second.
	ids := make([]util.ID, 5)
	for i, r := range "abcde" {
		ids[i] = gen.Next()
		insertAfter(b, prev, Char{ID: ids[i], Rune: r, Author: "u1", Created: time.Unix(int64(i+1), 0)})
		prev = ids[i]
	}
	// t=10: delete 'b'.
	b.Delete([]util.ID{ids[1]}, "u1", time.Unix(10, 0), nil)
	// t=12: insert 'X' after 'c'.
	insertAfter(b, ids[2], Char{ID: gen.Next(), Rune: 'X', Author: "u2", Created: time.Unix(12, 0)})

	cases := []struct {
		at   int64
		want string
	}{
		{0, ""},
		{1, "a"},
		{3, "abc"},
		{5, "abcde"},
		{10, "acde"},
		{12, "acXde"},
	}
	for _, c := range cases {
		if got := b.TextAt(time.Unix(c.at, 0)); got != c.want {
			t.Fatalf("TextAt(%d) = %q, want %q", c.at, got, c.want)
		}
	}
	if b.Text() != "acXde" {
		t.Fatalf("current Text = %q", b.Text())
	}
}

// TestBufferLoadRoundTrip: shuffled rows derive the buffer's instance
// order, tombstones included, from their anchors alone.
func TestBufferLoadRoundTrip(t *testing.T) {
	b, gen := bufWithText(t, "persistent text")
	id, _ := b.IDAt(3)
	b.Delete([]util.ID{id}, "u1", time.Unix(9, 0), nil)
	prev, _ := b.PredecessorForInsert(0)
	insertAfter(b, prev, Char{ID: gen.Next(), Rune: '>', Author: "u2", Created: time.Unix(10, 0)})

	rows := b.AllChars()
	// Shuffle rows to prove Load does not depend on row order.
	rng := util.NewRand(99)
	for i := len(rows) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	b2, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Text() != b.Text() {
		t.Fatalf("Load round trip: %q vs %q", b2.Text(), b.Text())
	}
	if !slices.Equal(b2.AllChars(), b.AllChars()) {
		t.Fatal("Load round trip derived another instance order")
	}
	if err := b2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferLoadRejectsCorruptAnchors: Load refuses the three ways rows
// can fail to derive one order — an anchor that is not among the rows,
// two instances typed after one with the same key, and rows the walk
// from the front never reaches (an anchor cycle).
func TestBufferLoadRejectsCorruptAnchors(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows []Char
		want string
	}{
		{"missing anchor", []Char{
			{ID: 1, Rune: 'a', Key: 1},
			{ID: 3, Rune: 'c', After: 2, Key: 3},
		}, "missing char"},
		{"shared key", []Char{
			{ID: 1, Rune: 'a', Key: 1},
			{ID: 2, Rune: 'b', After: 1, Key: 5},
			{ID: 3, Rune: 'c', After: 1, Key: 5},
		}, "share key"},
		{"cycle", []Char{
			{ID: 1, Rune: 'a', Key: 1},
			{ID: 2, Rune: 'b', After: 3, Key: 2},
			{ID: 3, Rune: 'c', After: 2, Key: 3},
		}, "unreachable"},
	} {
		if _, err := Load(tc.rows); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestBufferSliceAndRangeIDs(t *testing.T) {
	b, _ := bufWithText(t, "0123456789")
	if got := b.Slice(3, 4); got != "3456" {
		t.Fatalf("Slice(3,4) = %q", got)
	}
	ids := b.RangeIDs(3, 4)
	if len(ids) != 4 {
		t.Fatalf("RangeIDs returned %d ids", len(ids))
	}
	pos, ok := b.PosOf(ids[0])
	if !ok || pos != 3 {
		t.Fatalf("PosOf first range id = %d, %v", pos, ok)
	}
}

// TestBufferRandomisedAgainstReference drives the buffer with random
// position-based inserts and deletes and compares against a []rune model.
func TestBufferRandomisedAgainstReference(t *testing.T) {
	rng := util.NewRand(7)
	var gen util.IDGen
	b := NewBuffer()
	var ref []rune
	now := int64(1)
	for step := 0; step < 4000; step++ {
		now++
		if len(ref) == 0 || rng.Intn(3) != 0 {
			pos := rng.Intn(len(ref) + 1)
			r := rune('a' + rng.Intn(26))
			prev, err := b.PredecessorForInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: r, Author: "u", Created: time.Unix(now, 0)}); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], append([]rune{r}, ref[pos:]...)...)
		} else {
			pos := rng.Intn(len(ref))
			id, ok := b.IDAt(pos)
			if !ok {
				t.Fatalf("step %d: IDAt(%d) failed", step, pos)
			}
			if err := b.Delete([]util.ID{id}, "u", time.Unix(now, 0), nil); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], ref[pos+1:]...)
		}
		if step%500 == 0 {
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if b.Text() != string(ref) {
		t.Fatalf("buffer diverged from reference:\n%q\n%q",
			firstN(b.Text(), 80), firstN(string(ref), 80))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func clip(s string, n int) string { return firstN(s, n) }

// visibleAuthors returns the distinct authors of visible characters, sorted.
func visibleAuthors(b *Buffer) []string {
	set := map[string]bool{}
	b.WalkVisible(func(ch *Char) bool {
		set[ch.Author] = true
		return true
	})
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func TestBufferUnicode(t *testing.T) {
	b, _ := bufWithText(t, "héllo wörld — 日本語")
	if b.Text() != "héllo wörld — 日本語" {
		t.Fatalf("unicode text mangled: %q", b.Text())
	}
	if b.Len() != len([]rune("héllo wörld — 日本語")) {
		t.Fatal("rune count wrong")
	}
	if !strings.Contains(b.Text(), "日本語") {
		t.Fatal("CJK lost")
	}
}
