package search

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tendax/internal/core"
	"tendax/internal/mining"
	"tendax/internal/util"
)

// patchAlphabet holds what the window tokenizer must get right where a
// whole-text tokenize would not notice: runes whose lower case has a
// different UTF-8 length (İ U+0130 and K U+212A lower to one byte, Ⱥ
// U+023A grows to three), Σ, ASCII and non-ASCII digits, a combining mark
// (a separator, not a letter), CJK, punctuation from one to four bytes, and
// plain letters and spaces often enough to make words.
var patchAlphabet = []rune("abcdefghij  XYZ İKΣσȺß09٣७ ́日本語 .,-—!🙂\n")

// TestPatchDocMatchesUpdateDoc folds seeded edit programs into an index
// through PatchDoc and, after every step, requires the document's terms
// view, length, postings and snippet — and the corpus token total — to
// equal what UpdateDoc of the whole new text gives a fresh index. The
// edits land at random positions, exactly on token boundaries, and around
// the snippet edge, in documents of about 2k characters and of fewer runes
// than the snippet; some patches carry two separated changes at once.
func TestPatchDocMatchesUpdateDoc(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		prog := patchProgram(seed, 240)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runPatchProgram(t, prog) })
	}
}

// FuzzPatchDoc runs arbitrary edit programs (runPatchProgram), seeded with
// the programs of TestPatchDocMatchesUpdateDoc. A program is cut to about
// 50 edits, so every input stays a few milliseconds long.
func FuzzPatchDoc(f *testing.F) {
	const maxProgram = 1 + 50*12
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(patchProgram(seed, 40))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runPatchProgram(t, prog[:min(len(prog), maxProgram)])
	})
}

// patchProgram returns a random edit program of about steps edits.
func patchProgram(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, 1+steps*12)
	rng.Read(prog)
	return prog
}

// programReader hands out a program's bytes, then zeros: done reports
// whether the program is used up.
type programReader struct{ p []byte }

func (r *programReader) next() int {
	if len(r.p) == 0 {
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return int(b)
}

func (r *programReader) done() bool { return len(r.p) == 0 }

// runPatchProgram interprets prog as a starting text and a list of edits,
// and checks PatchDoc against UpdateDoc after every edit.
func runPatchProgram(t *testing.T, prog []byte) {
	eng, _ := fixture(t)
	r := &programReader{prog}
	ix := New(eng)
	// A second document shares the vocabulary, so postings hold two docs
	// and the patched one's posting is inserted and removed beside another.
	other, err := eng.CreateDocument("alice", "other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.InsertText("alice", 0, "abc İK σ 09 日本語 ab"); err != nil {
		t.Fatal(err)
	}
	ix.UpdateDoc(other.Info(), other.Text(), "")
	d, err := eng.CreateDocument("alice", "patched")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(r.next())))
	size := 2000
	if rng.Intn(2) == 0 {
		size = snippetRunes - 10
	}
	if _, err := d.InsertText("alice", 0, patchText(rng, size)); err != nil {
		t.Fatal(err)
	}
	ix.UpdateDoc(d.Info(), d.Text(), "")
	base := d.Snapshot()

	for step := 0; !r.done(); step++ {
		op := r.next()
		changed := []Range{applyEdit(t, d, r, op)}
		if op%8 == 7 && d.Len() > changed[0].NewEnd+1 {
			// A second edit after the first, separated from it by at least
			// one character (a patch's ranges never touch): its old
			// coordinates are its new ones minus what the first edit added.
			first := changed[0]
			pos := first.NewEnd + 1 + r.next()%(d.Len()-first.NewEnd)
			shift := (first.NewEnd - first.NewStart) - (first.OldEnd - first.OldStart)
			c := insertOrDelete(t, d, r, pos)
			c.OldStart, c.OldEnd = c.OldStart-shift, c.OldEnd-shift
			changed = append(changed, c)
		}
		cur := d.Snapshot()
		ix.PatchDoc(d.Info(), base.Tree(), cur.Tree(), changed)
		base = cur

		fresh := New(eng)
		fresh.UpdateDoc(other.Info(), other.Text(), "")
		fresh.UpdateDoc(d.Info(), cur.Text(), "")
		label := fmt.Sprintf("step %d (op %d, ranges %+v, text %q)", step, op, changed, cur.Text())
		requireSameIndex(t, label, fresh, ix)
	}
}

// applyEdit applies the edit op names at a position the program picks:
// anywhere, exactly on a token boundary, or around the snippet edge.
func applyEdit(t *testing.T, d *core.Document, r *programReader, op int) Range {
	t.Helper()
	n := d.Len()
	var pos int
	switch r.next() % 4 {
	case 0:
		pos = (r.next()<<8 | r.next()) % (n + 1)
	case 1:
		bounds := tokenBoundaries(d.Text())
		pos = bounds[r.next()%len(bounds)]
	case 2:
		pos = min(n, max(0, snippetRunes-1+r.next()%3))
	default:
		pos = []int{0, n}[r.next()%2]
	}
	if op%8 == 6 && n > 0 {
		// A large delete: the document may shrink under the snippet.
		pos = min(pos, n-1)
		k := 1 + r.next()%(n-pos)
		deleteRange(t, d, pos, k)
		return Range{OldStart: pos, OldEnd: pos + k, NewStart: pos, NewEnd: pos}
	}
	return insertOrDelete(t, d, r, pos)
}

// insertOrDelete inserts up to 8 runes of patchAlphabet at pos, or deletes
// up to 24 from it, as the program says.
func insertOrDelete(t *testing.T, d *core.Document, r *programReader, pos int) Range {
	t.Helper()
	if n := d.Len(); r.next()%3 == 0 && pos < n {
		k := 1 + r.next()%min(24, n-pos)
		deleteRange(t, d, pos, k)
		return Range{OldStart: pos, OldEnd: pos + k, NewStart: pos, NewEnd: pos}
	}
	text := make([]rune, 1+r.next()%8)
	for i := range text {
		text[i] = patchAlphabet[r.next()%len(patchAlphabet)]
	}
	if _, err := d.InsertText("alice", pos, string(text)); err != nil {
		t.Fatal(err)
	}
	return Range{OldStart: pos, OldEnd: pos, NewStart: pos, NewEnd: pos + len(text)}
}

func deleteRange(t *testing.T, d *core.Document, pos, n int) {
	t.Helper()
	if _, err := d.DeleteRange("alice", pos, n); err != nil {
		t.Fatal(err)
	}
}

func patchText(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(patchAlphabet[rng.Intn(len(patchAlphabet))])
	}
	return sb.String()
}

// tokenBoundaries lists the positions where a token starts or ends in
// text, plus both ends of the text.
func tokenBoundaries(text string) []int {
	out := []int{0}
	prev := false
	i := 0
	for _, r := range text {
		if tok := mining.IsTokenRune(r); tok != prev {
			out = append(out, i)
			prev = tok
		}
		i++
	}
	return append(out, i)
}

// requireSameIndex requires got to hold exactly want's terms views,
// lengths, corpus token total, postings and snippets. Term IDs are the
// index's own, so terms are compared by their strings.
func requireSameIndex(t *testing.T, label string, want, got *Index) {
	t.Helper()
	for id := range want.terms {
		if w, g := termNames(want, id), termNames(got, id); !maps.Equal(w, g) {
			t.Fatalf("%s: doc %d terms\n got %v\nwant %v", label, id, g, w)
		}
	}
	for id, terms := range got.terms {
		if len(terms) > 0 && want.terms[id] == nil {
			t.Fatalf("%s: doc %d has terms %v, want none", label, id, termNames(got, id))
		}
	}
	if !maps.Equal(want.lengths, got.lengths) || want.tokens != got.tokens {
		t.Fatalf("%s: lengths %v (total %d), want %v (total %d)", label, got.lengths, got.tokens, want.lengths, want.tokens)
	}
	if w, g := postingsByTerm(want), postingsByTerm(got); !maps.EqualFunc(w, g, slices.Equal[[]posting]) {
		t.Fatalf("%s: postings\n got %v\nwant %v", label, g, w)
	}
	if !maps.Equal(want.snippets, got.snippets) {
		t.Fatalf("%s: snippets\n got %q\nwant %q", label, got.snippets, want.snippets)
	}
}

// termNames returns doc's terms in ix's reverse view.
func termNames(ix *Index, doc util.ID) map[string]struct{} {
	out := map[string]struct{}{}
	for id := range ix.terms[doc] {
		out[ix.lists[id].term] = struct{}{}
	}
	return out
}

// postingsByTerm returns ix's posting lists by term.
func postingsByTerm(ix *Index) map[string][]posting {
	out := map[string][]posting{}
	for term, id := range ix.termIDs {
		out[term] = ix.lists[id].docs
	}
	return out
}
