package texttree

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tendax/internal/util"
)

// headWalk is the reference the positional reads replaced: scan the visible
// characters from the head, keep those whose position falls in [pos, pos+n).
func headWalk(s *Snapshot, pos, n int) (string, []util.ID) {
	var text []rune
	var ids []util.ID
	i := 0
	s.WalkVisible(func(ch *Char) bool {
		if i >= pos && i < pos+n {
			text = append(text, ch.Rune)
			ids = append(ids, ch.ID)
		}
		i++
		return i < pos+n
	})
	return string(text), ids
}

// TestPositionalReadsMatchHeadWalk checks Snapshot.Slice/RangeIDs and
// Buffer.Slice/RangeIDs — all of which now descend by visible count —
// against the head walk, on a buffer riddled with tombstones: random
// windows, both ends of the document, windows that start before 0 or run
// past the end, empty and negative lengths.
func TestPositionalReadsMatchHeadWalk(t *testing.T) {
	rng := util.NewRand(41)
	var gen util.IDGen
	b := NewBuffer()
	now := int64(0)
	for step := 0; step < 3000; step++ {
		now++
		if b.Len() == 0 || rng.Intn(10) < 6 {
			prev, err := b.PredecessorForInsert(rng.Intn(b.Len() + 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: rune('a' + rng.Intn(26)), Author: "u", Created: time.Unix(now, 0)}); err != nil {
				t.Fatal(err)
			}
		} else {
			// Delete a short run so whole subtrees go invisible.
			pos := rng.Intn(b.Len())
			for _, id := range b.RangeIDs(pos, 1+rng.Intn(6)) {
				if err := b.deleteEach([]util.ID{id}, "u", time.Unix(now, 0), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s := b.Snapshot()
	if s.Len() == 0 || s.TotalLen() == s.Len() {
		t.Fatalf("degenerate fixture: %d visible of %d", s.Len(), s.TotalLen())
	}
	check := func(pos, n int) {
		t.Helper()
		wantText, wantIDs := headWalk(s, pos, n)
		label := fmt.Sprintf("[%d,+%d) of %d", pos, n, s.Len())
		if got := s.Slice(pos, n); got != wantText {
			t.Fatalf("Snapshot.Slice %s = %q, want %q", label, got, wantText)
		}
		if got := b.Slice(pos, n); got != wantText {
			t.Fatalf("Buffer.Slice %s = %q, want %q", label, got, wantText)
		}
		if got := s.RangeIDs(pos, n); fmt.Sprint(got) != fmt.Sprint(wantIDs) {
			t.Fatalf("Snapshot.RangeIDs %s = %v, want %v", label, got, wantIDs)
		}
		if got := b.RangeIDs(pos, n); fmt.Sprint(got) != fmt.Sprint(wantIDs) {
			t.Fatalf("Buffer.RangeIDs %s = %v, want %v", label, got, wantIDs)
		}
	}
	l := s.Len()
	for _, c := range [][2]int{
		{0, 0}, {0, 1}, {0, l}, {0, l + 5}, {l - 1, 1}, {l - 1, 9}, {l, 1}, {l + 3, 2},
		{-2, 5}, {-5, 3}, {4, -1}, {l / 2, 0},
	} {
		check(c[0], c[1])
	}
	for i := 0; i < 500; i++ {
		check(rng.Intn(l+2)-1, rng.Intn(40))
	}
}

// TestSliceAllocatesOnce gates the reader the indexer calls on every
// patched window: a Slice grows its builder once, to the clipped length,
// so 64 ASCII runes cost the one allocation of the returned string.
// Appending rune by rune reallocated the builder as it grew.
func TestSliceAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	b, _ := bufWithText(t, strings.Repeat("tendax ", 100))
	s := b.Snapshot()
	var got string
	allocs := testing.AllocsPerRun(100, func() { got = s.Slice(300, 64) })
	if want := strings.Repeat("tendax ", 100)[300:364]; got != want {
		t.Fatalf("Slice = %q, want %q", got, want)
	}
	if allocs != 1 {
		t.Fatalf("a 64-rune Slice allocated %.1f times, want 1", allocs)
	}
}
