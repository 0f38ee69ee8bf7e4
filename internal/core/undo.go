package core

import (
	"errors"
	"fmt"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// ErrNothingToUndo reports an empty undo (or redo) history for the scope.
var ErrNothingToUndo = errors.New("core: nothing to undo")

// ErrNothingToRedo reports that no undone operation is available to redo.
var ErrNothingToRedo = errors.New("core: nothing to redo")

// opRecord mirrors one ops-table row in memory. The document keeps its
// operation log cached (the table remains the source of truth and the cache
// is rebuilt on open).
type opRecord struct {
	ID      util.ID
	User    string
	Kind    string
	CharIDs []util.ID
	Ref     util.ID
	Created time.Time
	Undone  bool
}

// opChunkBytes bounds the char-ID payload stored per row; longer lists
// spill into opchunks continuation rows.
const opChunkBytes = 128 * 8

// loadOps populates the in-memory operation log from the ops table,
// reassembling chunked ID payloads.
func (d *Document) loadOps() error {
	rids, err := d.eng.tOps.LookupEq("doc", int64(d.id))
	if err != nil {
		return err
	}
	d.ops = d.ops[:0]
	for _, rid := range rids {
		row, err := d.eng.tOps.Get(nil, rid)
		if err != nil {
			return err
		}
		op := opFromRow(row)
		if len(row[4].([]byte)) >= opChunkBytes {
			more, err := d.loadOpChunks(op.ID)
			if err != nil {
				return err
			}
			op.CharIDs = append(op.CharIDs, more...)
		}
		d.ops = append(d.ops, op)
	}
	// LookupEq returns RID order; ops were appended over time but RID order
	// within one doc can interleave with other docs' pages, so sort by ID
	// (IDs are allocation-ordered).
	for i := 1; i < len(d.ops); i++ {
		for j := i; j > 0 && d.ops[j].ID < d.ops[j-1].ID; j-- {
			d.ops[j], d.ops[j-1] = d.ops[j-1], d.ops[j]
		}
	}
	return nil
}

// loadOpChunks returns the continuation char IDs of one op, in order.
func (d *Document) loadOpChunks(opID util.ID) ([]util.ID, error) {
	rids, err := d.eng.tOpChunks.LookupEq("op", int64(opID))
	if err != nil {
		return nil, err
	}
	type chunk struct {
		seq int64
		ids []util.ID
	}
	chunks := make([]chunk, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tOpChunks.Get(nil, rid)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk{row[2].(int64), decodeIDs(row[3].([]byte))})
	}
	for i := 1; i < len(chunks); i++ {
		for j := i; j > 0 && chunks[j].seq < chunks[j-1].seq; j-- {
			chunks[j], chunks[j-1] = chunks[j-1], chunks[j]
		}
	}
	var out []util.ID
	for _, c := range chunks {
		out = append(out, c.ids...)
	}
	return out, nil
}

// writeOpRow persists one operation record inside tx, spilling long char-ID
// lists into continuation rows so no row outgrows a page.
func (d *Document) writeOpRow(tx *txn.Txn, op *opRecord) error {
	payload := encodeIDs(op.CharIDs)
	first := payload
	var rest []byte
	if len(payload) > opChunkBytes {
		first = payload[:opChunkBytes]
		rest = payload[opChunkBytes:]
	}
	if _, err := d.eng.tOps.Insert(tx, db.Row{
		int64(op.ID), int64(d.id), op.User, op.Kind, first,
		int64(op.Ref), op.Created, op.Undone,
	}); err != nil {
		return err
	}
	for seq := int64(1); len(rest) > 0; seq++ {
		chunk := rest
		if len(chunk) > opChunkBytes {
			chunk = chunk[:opChunkBytes]
		}
		rest = rest[len(chunk):]
		cid := d.eng.ids.Next()
		if _, err := d.eng.tOpChunks.Insert(tx, db.Row{
			int64(cid), int64(op.ID), seq, chunk,
		}); err != nil {
			return err
		}
	}
	return nil
}

// setOpUndone flips the undone flag on a persisted op row, leaving the
// (possibly chunk-prefixed) payload untouched.
func (d *Document) setOpUndone(tx *txn.Txn, opID util.ID, undone bool) error {
	row, _, err := d.eng.tOps.GetByPK(tx, int64(opID))
	if err != nil {
		return err
	}
	row[7] = undone
	return d.eng.tOps.UpdateByPK(tx, int64(opID), row)
}

func opFromRow(row db.Row) opRecord {
	return opRecord{
		ID:      util.ID(row[0].(int64)),
		User:    row[2].(string),
		Kind:    row[3].(string),
		CharIDs: decodeIDs(row[4].([]byte)),
		Ref:     util.ID(row[5].(int64)),
		Created: row[6].(time.Time),
		Undone:  row[7].(bool),
	}
}

// undoable reports whether an operation kind participates in undo history.
func undoable(kind string) bool {
	switch kind {
	case "insert", "paste", "delete", "layout", "layout-remove":
		return true
	}
	return false
}

// History returns the document's operation log (most recent last). Undo and
// redo operations appear as their own entries — the paper's metadata
// gathering keeps the full editing history queryable.
func (d *Document) History() []OpInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]OpInfo, len(d.ops))
	for i, op := range d.ops {
		out[i] = OpInfo{
			ID: op.ID, User: op.User, Kind: op.Kind, Chars: len(op.CharIDs),
			Ref: op.Ref, Created: op.Created, Undone: op.Undone,
		}
	}
	return out
}

// OpInfo is one entry of the editing history.
type OpInfo struct {
	ID      util.ID
	User    string
	Kind    string
	Chars   int
	Ref     util.ID
	Created time.Time
	Undone  bool
}

// UndoLocal undoes user's most recent not-yet-undone operation, even if
// other users edited afterwards (selective undo). Returns the undo
// operation's ID.
func (d *Document) UndoLocal(user string) (util.ID, error) {
	return d.undo(user, true)
}

// UndoGlobal undoes the document's most recent operation regardless of
// author, on behalf of user.
func (d *Document) UndoGlobal(user string) (util.ID, error) {
	return d.undo(user, false)
}

// RedoLocal redoes user's most recently undone operation.
func (d *Document) RedoLocal(user string) (util.ID, error) {
	return d.redo(user, true)
}

// RedoGlobal redoes the document's most recently undone operation.
func (d *Document) RedoGlobal(user string) (util.ID, error) {
	return d.redo(user, false)
}

func (d *Document) undo(user string, local bool) (util.ID, error) {
	return commitLocked(d, user, RWrite, func() (util.ID, wal.LSN, error) {
		return d.undoLocked(user, local)
	})
}

func (d *Document) undoLocked(user string, local bool) (util.ID, wal.LSN, error) {
	var target *opRecord
	for i := len(d.ops) - 1; i >= 0; i-- {
		op := &d.ops[i]
		if !undoable(op.Kind) || op.Undone {
			continue
		}
		if local && op.User != user {
			continue
		}
		target = op
		break
	}
	if target == nil {
		return util.NilID, 0, ErrNothingToUndo
	}
	now := d.eng.clock.Now()
	undoID := d.eng.ids.Next()

	plan, err := d.inversePlan(target, user, now)
	if err != nil {
		return util.NilID, 0, err
	}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		if err := plan.persist(tx); err != nil {
			return err
		}
		if err := d.setOpUndone(tx, target.ID, true); err != nil {
			return err
		}
		undoOp := opRecord{ID: undoID, User: user, Kind: "undo", CharIDs: plan.affected,
			Ref: target.ID, Created: now}
		if err := d.writeOpRow(tx, &undoOp); err != nil {
			return err
		}
		return d.updateDocRowLocked(tx, user, now, d.buf.Len()+plan.sizeDelta)
	})
	if err != nil {
		return util.NilID, 0, err
	}
	items := plan.apply()
	target.Undone = true
	d.ops = append(d.ops, opRecord{ID: undoID, User: user, Kind: "undo",
		CharIDs: plan.affected, Ref: target.ID, Created: now})
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvUndo, User: user, OpID: undoID,
		Name: target.Kind, N: len(target.CharIDs), Batch: items, At: now,
	})
	return undoID, lsn, nil
}

func (d *Document) redo(user string, local bool) (util.ID, error) {
	return commitLocked(d, user, RWrite, func() (util.ID, wal.LSN, error) {
		return d.redoLocked(user, local)
	})
}

func (d *Document) redoLocked(user string, local bool) (util.ID, wal.LSN, error) {
	// Find the most recent unconsumed undo (scoped to user for local).
	var undoOp *opRecord
	for i := len(d.ops) - 1; i >= 0; i-- {
		op := &d.ops[i]
		if op.Kind != "undo" || op.Undone {
			continue
		}
		if local && op.User != user {
			continue
		}
		undoOp = op
		break
	}
	if undoOp == nil {
		return util.NilID, 0, ErrNothingToRedo
	}
	var target *opRecord
	for i := range d.ops {
		if d.ops[i].ID == undoOp.Ref {
			target = &d.ops[i]
			break
		}
	}
	if target == nil {
		return util.NilID, 0, ErrNothingToRedo
	}
	now := d.eng.clock.Now()
	redoID := d.eng.ids.Next()

	// Redo reverts exactly the set the undo flipped (recorded on the undo
	// op), not the target's full list — characters hidden by other users'
	// operations stay hidden.
	plan, err := d.reapplyPlan(target, undoOp.CharIDs, user, now)
	if err != nil {
		return util.NilID, 0, err
	}
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		if err := plan.persist(tx); err != nil {
			return err
		}
		if err := d.setOpUndone(tx, target.ID, false); err != nil {
			return err
		}
		if err := d.setOpUndone(tx, undoOp.ID, true); err != nil {
			return err
		}
		redoOp := opRecord{ID: redoID, User: user, Kind: "redo", CharIDs: target.CharIDs,
			Ref: target.ID, Created: now}
		if err := d.writeOpRow(tx, &redoOp); err != nil {
			return err
		}
		return d.updateDocRowLocked(tx, user, now, d.buf.Len()+plan.sizeDelta)
	})
	if err != nil {
		return util.NilID, 0, err
	}
	items := plan.apply()
	target.Undone = false
	undoOp.Undone = true
	d.ops = append(d.ops, opRecord{ID: redoID, User: user, Kind: "redo",
		CharIDs: target.CharIDs, Ref: target.ID, Created: now})
	d.publishEventLocked(awareness.Event{
		Doc: d.id, Kind: awareness.EvRedo, User: user, OpID: redoID,
		Name: target.Kind, N: len(target.CharIDs), Batch: items, At: now,
	})
	return redoID, lsn, nil
}

// undoPlan captures the row updates and buffer mutations of an undo/redo,
// so persistence happens inside the transaction and the buffer is touched
// only after commit. apply returns the positional items of what it
// flipped, each resolved after the items before it as a batch's are, so
// every replica replays an undo like any edit. affected lists the
// characters the plan actually flips — the undo operation records it so a
// later redo reverts exactly this set and nothing more (characters hidden
// by other users' deletes stay hidden).
type undoPlan struct {
	persist   func(tx *txn.Txn) error
	apply     func() []awareness.BatchItem
	sizeDelta int
	affected  []util.ID
}

// inversePlan builds the inverse of op: hide inserted chars, restore
// deleted ones, or flip a span's removed flag.
func (d *Document) inversePlan(op *opRecord, user string, now time.Time) (*undoPlan, error) {
	switch op.Kind {
	case "insert", "paste":
		return d.visibilityPlanLocked(op.CharIDs, false, user, now)
	case "delete":
		return d.visibilityPlanLocked(op.CharIDs, true, user, now)
	case "layout":
		return d.spanRemovedPlanLocked(op.Ref, true), nil
	case "layout-remove":
		return d.spanRemovedPlanLocked(op.Ref, false), nil
	}
	return nil, ErrNothingToUndo
}

// reapplyPlan rebuilds the original effect of op (for redo) over the given
// character set (the subset the corresponding undo actually flipped).
func (d *Document) reapplyPlan(op *opRecord, ids []util.ID, user string, now time.Time) (*undoPlan, error) {
	switch op.Kind {
	case "insert", "paste":
		return d.visibilityPlanLocked(ids, true, user, now)
	case "delete":
		return d.visibilityPlanLocked(ids, false, user, now)
	case "layout":
		return d.spanRemovedPlanLocked(op.Ref, false), nil
	case "layout-remove":
		return d.spanRemovedPlanLocked(op.Ref, true), nil
	}
	return nil, ErrNothingToRedo
}

// visibilityPlanLocked (d.mu held) makes the given characters visible or hidden. Characters
// already in the desired state (e.g. re-deleted by another user since) are
// skipped — selective undo over tombstones commutes per character. An
// undelete of a character whose tombstone was archived by compaction first
// rehydrates it: the instance re-enters the chars table and the hot chain
// at its anchor, its run splits around it, and only then does visibility
// flip — all inside the one undo transaction.
func (d *Document) visibilityPlanLocked(ids []util.ID, visible bool, user string, now time.Time) (*undoPlan, error) {
	var affected []util.ID // hot instances whose visibility flips
	var archived []util.ID // archived tombstones to rehydrate, then flip
	// Undo may reach archived tombstones; the lazily parked archive must
	// be resident before the hot-or-archived triage below.
	if _, err := d.ensureArchiveLocked(); err != nil {
		return nil, err
	}
	arch := d.buf.Archive()
	for _, id := range ids {
		if ch, ok := d.buf.Char(id); ok {
			if ch.Deleted == !visible {
				continue // already in desired state
			}
			affected = append(affected, id)
			continue
		}
		if arch.Contains(id) {
			// Archived instances are tombstones by construction: only an
			// undelete needs them back; a re-hide finds them hidden already.
			if visible {
				archived = append(archived, id)
			}
			continue
		}
		// Unknown everywhere: dropped by an external cleanup; skip.
	}
	var rplan *texttree.RehydratePlan
	if len(archived) > 0 {
		var err error
		if rplan, err = d.buf.PlanRehydrate(archived); err != nil {
			return nil, err
		}
	}

	// flip returns ch with its visibility switched, recording (or ending)
	// the deletion interval so time travel still sees the gap.
	flip := func(ch texttree.Char) texttree.Char {
		if visible {
			ch.Deleted = false
			ch.Restored = now
		} else {
			ch.Deleted = true
			ch.DeletedBy = user
			ch.DeletedAt = now
			ch.Restored = time.Time{}
		}
		return ch
	}

	delta := len(affected) + len(archived)
	if !visible {
		delta = -delta
	}
	all := append(append([]util.ID(nil), affected...), archived...)
	return &undoPlan{
		sizeDelta: delta,
		affected:  all,
		persist: func(tx *txn.Txn) error {
			// Final row state per instance: link rewrites from rehydration
			// first, then visibility flips, so an instance touched by both
			// is written once with both effects.
			final := make(map[util.ID]texttree.Char)
			inserted := make(map[util.ID]bool)
			if rplan != nil {
				for _, step := range rplan.Steps {
					final[step.Ch.ID] = flip(step.Ch)
					inserted[step.Ch.ID] = true
				}
				for id, upd := range rplan.LinkUpdates {
					final[id] = *upd
				}
			}
			for _, id := range affected {
				ch, ok := final[id]
				if !ok {
					c, _ := d.buf.Char(id)
					ch = *c
				}
				final[id] = flip(ch)
			}
			for id, ch := range final {
				row := d.rowFromChar(&ch)
				if inserted[id] {
					if _, err := d.eng.tChars.Insert(tx, row); err != nil {
						return err
					}
				} else if err := d.eng.tChars.UpdateByPK(tx, int64(id), row); err != nil {
					return err
				}
			}
			if rplan != nil {
				for anchor, run := range rplan.RunUpdates {
					if err := d.deleteArchiveRows(tx, anchor); err != nil {
						return err
					}
					if len(run) > 0 {
						if err := d.insertArchiveRows(tx, anchor, run); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
		apply: func() []awareness.BatchItem {
			if rplan != nil {
				if err := d.buf.ApplyRehydrate(rplan); err != nil {
					// The transaction already committed the rehydrated
					// rows; a failure here means the plan went stale under
					// the document lock, which cannot happen. Surface it
					// loudly rather than diverge silently.
					panic(fmt.Sprintf("core: rehydrate after commit: %v", err))
				}
			}
			var items []awareness.BatchItem
			var runes []rune // restored text, in flip order
			for _, id := range all {
				if visible {
					d.buf.Undelete(id, now)
					pos, _ := d.buf.PosOf(id)
					ch, _ := d.buf.Char(id)
					runes = append(runes, ch.Rune)
					items = appendFlip(items, awareness.EvInsert, pos, id, true)
				} else {
					pos, _ := d.buf.PosOf(id)
					d.buf.Delete(id, user, now)
					items = appendFlip(items, awareness.EvDelete, pos, id, true)
				}
			}
			for i := 0; visible && i < len(items); i++ {
				items[i].Text, runes = string(runes[:items[i].N]), runes[items[i].N:]
			}
			return items
		},
	}, nil
}

// spanRemovedPlanLocked (d.mu held) flips a span's removed flag; its one
// layout item at the span's start makes the indexer re-resolve headings.
func (d *Document) spanRemovedPlanLocked(spanID util.ID, removed bool) *undoPlan {
	var start util.ID
	return &undoPlan{
		persist: func(tx *txn.Txn) error {
			cur, _, err := d.eng.tSpans.GetByPK(tx, int64(spanID))
			if err != nil {
				return err
			}
			start = util.ID(cur[4].(int64))
			cur[8] = removed
			return d.eng.tSpans.UpdateByPK(tx, int64(spanID), cur)
		},
		apply: func() []awareness.BatchItem {
			pos, _ := d.buf.RankOf(start)
			return []awareness.BatchItem{{Kind: awareness.EvLayout, Pos: pos}}
		},
	}
}
