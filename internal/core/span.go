package core

import (
	"sort"
	"time"

	"tendax/internal/db"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// Span is a layout, structure or note annotation anchored to character
// instances. Because anchors are character identities rather than offsets,
// spans survive concurrent edits without adjustment — the TeNDaX approach
// to collaborative layouting.
type Span struct {
	ID      util.ID
	Kind    string // bold, italic, heading, paragraph-style, note, …
	Value   string // e.g. heading level, font, or the note text
	Start   util.ID
	End     util.ID
	Author  string
	Created time.Time
	Removed bool
}

// Standard span kinds.
const (
	SpanBold    = "bold"
	SpanItalic  = "italic"
	SpanHeading = "heading"
	SpanNote    = "note"
)

// removeSpan retracts a span (layout removal), as one transaction: the
// span-flag step staged on its own, committed and published like a batch.
func (d *Document) removeSpan(user string, spanID util.ID) error {
	_, err := commitLocked(d, user, RWrite, func() ([]EditResult, wal.LSN, error) {
		st := getBatch(user, d.eng.clock.Now())
		defer st.release()
		if err := d.stageSpanFlagLocked(st, spanID, true); err != nil {
			return nil, 0, err
		}
		return d.commitBatchLocked(st)
	})
	return err
}

// Spans returns the document's active (non-removed) spans, oldest first.
func (d *Document) Spans() ([]Span, error) {
	rids, err := d.eng.tSpans.LookupEq("doc", int64(d.id))
	if err != nil {
		return nil, err
	}
	var out []Span
	for _, rid := range rids {
		row, err := d.eng.tSpans.Get(nil, rid)
		if err != nil {
			continue
		}
		if row[8].(bool) {
			continue
		}
		out = append(out, spanFromRow(row))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func spanFromRow(row db.Row) Span {
	return Span{
		ID:      util.ID(row[0].(int64)),
		Kind:    row[2].(string),
		Value:   row[3].(string),
		Start:   util.ID(row[4].(int64)),
		End:     util.ID(row[5].(int64)),
		Author:  row[6].(string),
		Created: row[7].(time.Time),
		Removed: row[8].(bool),
	}
}

// SpanRange resolves a span's current visible position range [start, end)
// against the latest committed snapshot, without taking the document lock
// (DocSnapshot.ResolveSpans).
func (d *Document) SpanRange(s Span) (start, end int) {
	return d.Snapshot().SpanRange(s)
}
