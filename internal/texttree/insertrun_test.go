package texttree

import (
	"slices"
	"strings"
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
				if err := b.deleteEach([]util.ID{id}, "u", time.Unix(5, 0), nil); err != nil {
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
// caller's slice, which the caller may reuse at once.
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

// TestInsertRecordMatchesInsertRun inserts seeded runs in row form —
// typed, on a stride, and pasted with sources that form one progression,
// several, or stop short of the run — through InsertRecord into one
// buffer, and as instances through InsertRun into another, at random
// places: both must hold the same instances, cut into the same records,
// and return the same successor.
func TestInsertRecordMatchesInsertRun(t *testing.T) {
	got, gen := bufWithText(t, "seed")
	want, _ := bufWithText(t, "seed")
	rng := util.NewRand(11)
	created := time.Unix(3, 0)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		step := util.ID(1 + rng.Intn(3))
		first := gen.NextN(n * int(step))
		var text strings.Builder
		for i := 0; i < n; i++ {
			text.WriteRune([]rune("aé€😀 ")[rng.Intn(5)])
		}
		prev := util.NilID
		if k := rng.Intn(want.TotalLen() + 1); k > 0 {
			s := slotAt(want.root, k-1)
			prev = s.r.id(s.i)
		}
		r := Run{First: first, Step: step, After: prev, Text: text.String(), Author: authors[trial%2], Created: created}
		var src []util.ID
		switch rng.Intn(4) {
		case 1: // one progression
			r.SourceDoc, r.SourceFirst, r.SourceStep = 7, util.ID(500+trial), util.ID(rng.Intn(3))
		case 2: // several, maybe stopping short of the run
			r.SourceDoc = 7
			for i := 0; i < n-rng.Intn(3); i++ {
				src = append(src, util.ID(900+i*(1+i%3)))
			}
			src = src[:len(src):len(src)]
		case 3: // pasted from nothing
			src = []util.ID{}
		}
		chars := make([]Char, n)
		for i, c := range []rune(r.Text) {
			chars[i] = Char{ID: first + util.ID(i)*step, Rune: c, Author: r.Author, Created: created,
				SourceDoc: r.SourceDoc, SourceChar: r.SourceFirst + util.ID(i)*r.SourceStep}
			if src != nil {
				chars[i].SourceChar = 0
				if i < len(src) {
					chars[i].SourceChar = src[i]
				}
			}
		}
		nextGot, err := got.InsertRecord(&r, src)
		if err != nil {
			t.Fatalf("trial %d: InsertRecord: %v", trial, err)
		}
		nextWant, err := want.InsertRun(prev, chars)
		if err != nil {
			t.Fatalf("trial %d: InsertRun: %v", trial, err)
		}
		if nextGot != nextWant {
			t.Fatalf("trial %d: InsertRecord returned %v, InsertRun %v", trial, nextGot, nextWant)
		}
	}
	if !slices.Equal(got.AllChars(), want.AllChars()) {
		t.Fatal("InsertRecord and InsertRun hold other instances")
	}
	var segs [2][]seg
	for k, b := range []*Buffer{got, want} {
		walkLeaves(b.root, func(l *leaf) bool {
			for i := 0; i < l.n; i++ {
				segs[k] = append(segs[k], l.seg(i))
			}
			return true
		})
	}
	if len(segs[0]) != len(segs[1]) {
		t.Fatalf("InsertRecord made %d segments, InsertRun %d", len(segs[0]), len(segs[1]))
	}
	for i, s := range segs[0] {
		w := segs[1][i]
		if s.r.first != w.r.first || s.r.step != w.r.step || s.r.len() != w.r.len() || s.lo != w.lo || s.hi != w.hi ||
			(s.r.meta == nil) != (w.r.meta == nil) || s.r.meta != nil && *s.r.meta != *w.r.meta {
			t.Fatalf("segment %d: InsertRecord holds %v+%v×%d [%d,%d), InsertRun %v+%v×%d [%d,%d)",
				i, s.r.first, s.r.step, s.r.len(), s.lo, s.hi, w.r.first, w.r.step, w.r.len(), w.lo, w.hi)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
