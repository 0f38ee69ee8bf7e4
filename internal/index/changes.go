package index

import (
	"slices"

	"tendax/internal/search"
)

// changes is where a document's current text differs from the text its
// term table reflects, accumulated from the positional items of the events
// folded since: ranges in ascending order that neither overlap nor touch,
// each pairing a region of the old text with what replaced it. Outside the
// ranges the texts are identical, shifted by the length differences of the
// ranges before.
type changes []search.Range

// splice records one edit in current coordinates: del runes removed at pos,
// then ins runes inserted there. Ranges the edit overlaps or touches merge
// with it, later ones shift. This is the replay a position-based replica
// performs (client.Doc), applied to coordinates instead of text — which is
// why folding events in sequence order keeps the ranges exact.
func (c changes) splice(pos, del, ins int) changes {
	end := pos + del
	// shift is current minus old coordinate of unchanged text, first just
	// before range i and, after the merge loop, just before range j.
	shift, i := 0, 0
	for ; i < len(c) && c[i].NewEnd < pos; i++ {
		shift += (c[i].NewEnd - c[i].NewStart) - (c[i].OldEnd - c[i].OldStart)
	}
	m := search.Range{OldStart: pos - shift, NewStart: pos}
	j := i
	for ; j < len(c) && c[j].NewStart <= end; j++ {
		shift += (c[j].NewEnd - c[j].NewStart) - (c[j].OldEnd - c[j].OldStart)
	}
	if j > i && c[i].NewStart < pos {
		m.OldStart, m.NewStart = c[i].OldStart, c[i].NewStart
	}
	if j > i && c[j-1].NewEnd > end {
		m.OldEnd, m.NewEnd = c[j-1].OldEnd, c[j-1].NewEnd
	} else {
		m.OldEnd, m.NewEnd = end-shift, end
	}
	m.NewEnd += ins - del
	for k := j; k < len(c); k++ {
		c[k].NewStart += ins - del
		c[k].NewEnd += ins - del
	}
	if m.OldStart == m.OldEnd && m.NewStart == m.NewEnd {
		return slices.Delete(c, i, j) // the edit undid what the ranges recorded
	}
	return slices.Replace(c, i, j, m)
}
