package texttree

import (
	"slices"
	"testing"
	"time"

	"tendax/internal/util"
)

// TestInsertRunMatchesInsertAfter pins the batched splice to the
// per-character reference: the same run inserted via one InsertRun (one
// record) and via insertAfter one instance at a time (a record each) must
// produce identical text, instances (anchors and keys included) and
// snapshot mirrors, at the front, middle and end of a document, around
// tombstones included.
func TestInsertRunMatchesInsertAfter(t *testing.T) {
	mkRun := func(gen *util.IDGen, text string) []Char {
		run := make([]Char, 0, len(text))
		for _, r := range text {
			run = append(run, Char{ID: gen.Next(), Rune: r, Author: "u", Created: time.Unix(9, 0)})
		}
		return run
	}
	cases := []struct {
		name   string
		anchor func(b *Buffer) util.ID // where to insert
	}{
		{"front", func(b *Buffer) util.ID { return util.NilID }},
		{"middle", func(b *Buffer) util.ID { id, _ := b.IDAt(2); return id }},
		{"end", func(b *Buffer) util.ID { id, _ := b.IDAt(b.Len() - 1); return id }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refGen := bufWithText(t, "abcdef")
			got, gotGen := bufWithText(t, "abcdef")
			// Tombstone one char so the run crosses real-world state.
			for _, b := range []*Buffer{ref, got} {
				id, _ := b.IDAt(3)
				if err := b.Delete([]util.ID{id}, "u", time.Unix(5, 0), nil); err != nil {
					t.Fatal(err)
				}
			}
			refRun := mkRun(refGen, "XYZ")
			gotRun := mkRun(gotGen, "XYZ")
			prev := tc.anchor(ref)
			at := prev
			for i := range refRun {
				if _, err := insertAfter(ref, at, refRun[i]); err != nil {
					t.Fatal(err)
				}
				at = refRun[i].ID
			}
			if _, err := got.InsertRun(tc.anchor(got), gotRun); err != nil {
				t.Fatal(err)
			}
			if ref.Text() != got.Text() {
				t.Fatalf("text diverged: %q vs %q", ref.Text(), got.Text())
			}
			if !slices.Equal(ref.AllChars(), got.AllChars()) {
				t.Fatalf("records diverged:\n%+v\n%+v", ref.AllChars(), got.AllChars())
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got.Snapshot().Text() != ref.Text() {
				t.Fatalf("snapshot text diverged: %q vs %q", got.Snapshot().Text(), ref.Text())
			}
		})
	}
}

// TestInsertRunCopiesInput verifies the buffer does not retain the
// caller's slice — the commit path reuses its staging arena per batch.
func TestInsertRunCopiesInput(t *testing.T) {
	b := NewBuffer()
	var gen util.IDGen
	run := []Char{
		{ID: gen.Next(), Rune: 'h', Author: "u", Created: time.Unix(1, 0)},
		{ID: gen.Next(), Rune: 'i', Author: "u", Created: time.Unix(1, 0)},
	}
	if _, err := b.InsertRun(util.NilID, run); err != nil {
		t.Fatal(err)
	}
	run[0] = Char{ID: 999, Rune: '!'} // caller clobbers its slice
	run[1] = Char{ID: 998, Rune: '?'}
	if got := b.Text(); got != "hi" {
		t.Fatalf("buffer retained caller memory: %q", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRunRejectsDuplicates covers both duplicate-against-buffer and
// duplicate-within-run, and that a rejected run leaves the buffer intact.
func TestInsertRunRejectsDuplicates(t *testing.T) {
	b, gen := bufWithText(t, "ab")
	existing, _ := b.IDAt(0)
	bad := []Char{
		{ID: gen.Next(), Rune: 'x', Created: time.Unix(1, 0)},
		{ID: existing, Rune: 'y', Created: time.Unix(1, 0)},
	}
	if _, err := b.InsertRun(util.NilID, bad); err == nil {
		t.Fatal("duplicate against buffer accepted")
	}
	dup := gen.Next()
	bad = []Char{
		{ID: dup, Rune: 'x', Created: time.Unix(1, 0)},
		{ID: dup, Rune: 'y', Created: time.Unix(1, 0)},
	}
	if _, err := b.InsertRun(util.NilID, bad); err == nil {
		t.Fatal("duplicate within run accepted")
	}
	if got := b.Text(); got != "ab" {
		t.Fatalf("failed insert mutated buffer: %q", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
