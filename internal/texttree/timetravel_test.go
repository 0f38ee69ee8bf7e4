package texttree

import (
	"strings"
	"testing"
	"time"

	"tendax/internal/util"
)

// TestTextAtMatchesEventReplay drives a random editing history while
// maintaining, for every commit instant, an independently replayed
// reference text. TextAt must reproduce each historical state exactly —
// the versioning invariant (a version is a pure filter over the chain).
func TestTextAtMatchesEventReplay(t *testing.T) {
	rng := util.NewRand(1234)
	var gen util.IDGen
	b := NewBuffer()

	type snapshot struct {
		at   time.Time
		text string
	}
	var history []snapshot
	ref := []rune{}
	now := int64(10)

	for step := 0; step < 800; step++ {
		now += int64(1 + rng.Intn(3))
		at := time.Unix(now, 0)
		if len(ref) == 0 || rng.Float64() < 0.65 {
			pos := 0
			if len(ref) > 0 {
				pos = rng.Intn(len(ref) + 1)
			}
			r := rune('a' + rng.Intn(26))
			prev, err := b.PredecessorForInsert(pos)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := insertAfter(b, prev, Char{ID: gen.Next(), Rune: r, Author: "u", Created: at}); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], append([]rune{r}, ref[pos:]...)...)
		} else {
			pos := rng.Intn(len(ref))
			id, ok := b.IDAt(pos)
			if !ok {
				t.Fatalf("step %d: IDAt(%d)", step, pos)
			}
			if err := b.deleteEach([]util.ID{id}, "u", at, nil); err != nil {
				t.Fatal(err)
			}
			ref = append(ref[:pos], ref[pos+1:]...)
		}
		if step%40 == 0 {
			history = append(history, snapshot{at: at, text: string(ref)})
		}
	}
	// Every historical snapshot reconstructs exactly.
	for i, snap := range history {
		if got := b.TextAt(snap.at); got != snap.text {
			t.Fatalf("snapshot %d at %v:\n got %q\nwant %q",
				i, snap.at, firstN(got, 60), firstN(snap.text, 60))
		}
	}
	// And reconstruction is monotone with respect to prefix times: a time
	// before any edit yields the empty document.
	if got := b.TextAt(time.Unix(1, 0)); got != "" {
		t.Fatalf("pre-history text = %q", got)
	}
	if b.TextAt(time.Unix(now+100, 0)) != b.Text() {
		t.Fatal("post-history reconstruction differs from current text")
	}
}

// TestVisibleIDsAreOrderedByPosition cross-checks the three position APIs.
func TestVisibleIDsAreOrderedByPosition(t *testing.T) {
	b, _ := bufWithText(t, strings.Repeat("abcdefgh", 20))
	id3, _ := b.IDAt(3)
	b.deleteEach([]util.ID{id3}, "u", time.Unix(99, 0), nil)
	ids := b.VisibleIDs()
	if len(ids) != b.Len() {
		t.Fatalf("VisibleIDs %d vs Len %d", len(ids), b.Len())
	}
	for pos, id := range ids {
		got, ok := b.IDAt(pos)
		if !ok || got != id {
			t.Fatalf("IDAt(%d) = %v, VisibleIDs[%d] = %v", pos, got, pos, id)
		}
		back, ok := b.PosOf(id)
		if !ok || back != pos {
			t.Fatalf("PosOf(%v) = %d, want %d", id, back, pos)
		}
	}
}
