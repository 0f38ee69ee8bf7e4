package core

import (
	"fmt"
	"sort"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/txn"
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
	SpanFont    = "font"
	SpanHeading = "heading"
	SpanStyle   = "style"
	SpanNote    = "note"
)

// RemoveSpan retracts a span (layout removal), as one transaction.
func (d *Document) RemoveSpan(user string, spanID util.ID) error {
	_, err := commitLocked(d, user, RWrite, func() (struct{}, wal.LSN, error) {
		lsn, err := d.removeSpanLocked(user, spanID)
		return struct{}{}, lsn, err
	})
	return err
}

func (d *Document) removeSpanLocked(user string, spanID util.ID) (wal.LSN, error) {
	now := d.eng.clock.Now()
	rec := opRecord{ID: d.eng.ids.Next(), User: user, Kind: "layout-remove", Ref: spanID, Created: now}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		row, _, err := d.eng.tSpans.GetByPK(tx, int64(spanID))
		if err != nil {
			return err
		}
		if util.ID(row[1].(int64)) != d.id {
			return fmt.Errorf("core: span %v belongs to another document", spanID)
		}
		row[8] = true
		if err := d.eng.tSpans.UpdateByPK(tx, int64(spanID), row); err != nil {
			return err
		}
		if err := d.writeOpRow(tx, &rec); err != nil {
			return err
		}
		return d.updateDocRowLocked(tx, user, now, d.buf.Len())
	})
	if err != nil {
		return 0, err
	}
	d.ops = append(d.ops, rec)
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvLayout, User: user, OpID: rec.ID,
		Name: "remove", At: now,
	})
	return lsn, nil
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
