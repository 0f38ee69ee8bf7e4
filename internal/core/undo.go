package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// ErrNothingToUndo reports an empty undo (or redo) history for the scope.
var ErrNothingToUndo = errors.New("core: nothing to undo")

// ErrNothingToRedo reports that no undone operation is available to redo.
var ErrNothingToRedo = errors.New("core: nothing to redo")

// opKind is an op's kind as the ops table stores it: a one-byte code.
// History and events name it by its String.
type opKind uint8

// The op kinds. Their codes are the ops table's: append, never renumber.
const (
	opInsert opKind = iota + 1
	opPaste
	opDelete
	opLayout
	opLayoutRemove
	opRestore
	opUndo
	opRedo
	opCopy
	opState
)

var opKindNames = [...]string{opInsert: "insert", opPaste: "paste", opDelete: "delete",
	opLayout: "layout", opLayoutRemove: "layout-remove", opRestore: "restore",
	opUndo: "undo", opRedo: "redo", opCopy: "copy", opState: "state"}

func (k opKind) String() string { return opKindNames[k] }

// opKindOf returns the kind an ops row's kind column codes.
func opKindOf(code int64) (opKind, error) {
	if code < int64(opInsert) || code >= int64(len(opKindNames)) {
		return 0, fmt.Errorf("core: unknown op kind %d in an ops row", code)
	}
	return opKind(code), nil
}

// opRecord is one ops-table row as a batch stages it, character IDs
// included: what writeOpRow persists. Once the row has committed the
// document keeps only its opHead.
type opRecord struct {
	ID      util.ID
	User    string
	Kind    opKind
	CharIDs util.IDs
	Ref     util.ID
	Created time.Time
}

// head returns the op-log cache entry of op, not yet undone.
func (op *opRecord) head() opHead {
	return opHead{ID: op.ID, Ref: op.Ref, User: op.User, Kind: op.Kind,
		Created: op.Created.UnixNano(), Chars: int32(op.CharIDs.Len())}
}

// opHead is one ops-table row in the document's op-log cache: everything
// but the row's character IDs, which only an undo or redo needs and reads
// from the row (opIDs). The ops table is authoritative; the cache is
// rebuilt on open. At most 48 bytes (TestOpHeadSize): the cache grows by
// one head per committed op.
type opHead struct {
	ID      util.ID
	Ref     util.ID // the span of a layout op; the reverted op of an undo or redo
	User    string
	Created int64 // UnixNano, as the row stores it
	Chars   int32 // the character IDs the row lists
	Kind    opKind
	Undone  bool
}

// opLogStep is the fewest op heads the cached log grows by.
const opLogStep = 16

// opChunkBytes bounds the char-ID payload stored per row; longer lists
// spill into opchunks continuation rows.
const opChunkBytes = 1024

// loadOps populates the in-memory operation log from the ops table, and
// with it the document's newest change. A row's IDs are counted, not kept.
func (d *Document) loadOps() error {
	rids, err := d.eng.tOps.LookupEq("doc", int64(d.id))
	if err != nil {
		return err
	}
	ops := make([]opHead, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tOps.Get(nil, rid)
		if err != nil {
			return err
		}
		op, err := d.headFromRow(row)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	// LookupEq returns RID order; ops were appended over time but RID order
	// within one doc can interleave with other docs' pages, so sort by ID
	// (IDs are allocation-ordered).
	slices.SortFunc(ops, func(a, b opHead) int { return cmp.Compare(a.ID, b.ID) })
	d.ops = ops
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind != opCopy {
			d.last = ops[i]
			break
		}
	}
	return nil
}

// appendOpLocked appends a committed op to the cached log. Every op but a
// copy changes the document, so it becomes d.last. Caller holds d.mu, or
// owns a document not yet shared.
func (d *Document) appendOpLocked(op opHead) {
	if len(d.ops) == cap(d.ops) {
		// Grow by an eighth (at least opLogStep heads), not by append's
		// quarter or more: the log lives as long as the handle, so its
		// spare capacity is retained heap.
		grown := make([]opHead, len(d.ops), len(d.ops)+max(len(d.ops)/8, opLogStep))
		copy(grown, d.ops)
		d.ops = grown
	}
	d.ops = append(d.ops, op)
	if op.Kind != opCopy {
		d.last = op
	}
}

// opPayload returns the whole chars payload of ops row row: its own bytes
// and, when they fill the row, its continuation rows'.
func (d *Document) opPayload(row db.Row) ([]byte, error) {
	payload := row[4].([]byte)
	if len(payload) < opChunkBytes {
		return payload, nil
	}
	return d.appendOpChunks(payload, util.ID(row[0].(int64)))
}

// opIDs reads the character IDs of op opID from its ops row: the instances
// an insert created, a delete hid, or an undo or redo flipped. The row's
// payload is the IDs' payload (util.IDs.AppendPayload) based at opID.
func (d *Document) opIDs(opID util.ID) (util.IDs, error) {
	row, _, err := d.eng.tOps.GetByPK(nil, int64(opID))
	if err != nil {
		return util.IDs{}, err
	}
	payload, err := d.opPayload(row)
	if err != nil {
		return util.IDs{}, err
	}
	ids, err := util.DecodeIDs(payload, opID)
	if err != nil {
		return util.IDs{}, fmt.Errorf("core: char IDs of op %v: %w", opID, err)
	}
	return ids, nil
}

// appendOpChunks appends the payload continuation rows of one op hold to
// payload, in order.
func (d *Document) appendOpChunks(payload []byte, opID util.ID) ([]byte, error) {
	rids, err := d.eng.tOpChunks.LookupEq("op", int64(opID))
	if err != nil {
		return nil, err
	}
	type chunk struct {
		seq   int64
		bytes []byte
	}
	chunks := make([]chunk, 0, len(rids))
	for _, rid := range rids {
		row, err := d.eng.tOpChunks.Get(nil, rid)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk{row[2].(int64), row[3].([]byte)})
	}
	slices.SortFunc(chunks, func(a, b chunk) int { return cmp.Compare(a.seq, b.seq) })
	payload = slices.Clip(payload)
	for _, c := range chunks {
		payload = append(payload, c.bytes...)
	}
	return payload, nil
}

// writeOpRow persists one operation record inside tx with enc, an encoder
// of the ops table, spilling long char-ID payloads into continuation rows
// so no row outgrows a page.
func (d *Document) writeOpRow(tx *txn.Txn, enc *db.RowEncoder, op *opRecord) error {
	var buf [32]byte
	payload := op.CharIDs.AppendPayload(buf[:0], op.ID)
	first := payload
	var rest []byte
	if len(payload) > opChunkBytes {
		first = payload[:opChunkBytes]
		rest = payload[opChunkBytes:]
	}
	enc.Int(int64(op.ID))
	enc.Int(int64(d.id))
	enc.String(op.User)
	enc.Int(int64(op.Kind))
	enc.Bytes(first)
	enc.Int(int64(op.Ref))
	enc.Time(op.Created)
	enc.Bool(false) // undone
	rec, err := enc.End()
	if err == nil {
		err = d.eng.tOps.InsertRecords(tx, rec)
	}
	if err != nil {
		return err
	}
	for seq := int64(1); len(rest) > 0; seq++ {
		chunk := slices.Clone(rest[:min(len(rest), opChunkBytes)]) // keeps buf off the heap
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

// headFromRow returns the op-log cache entry of ops row row.
func (d *Document) headFromRow(row db.Row) (opHead, error) {
	op := opHead{
		ID:      util.ID(row[0].(int64)),
		User:    row[2].(string),
		Ref:     util.ID(row[5].(int64)),
		Created: row[6].(time.Time).UnixNano(),
		Undone:  row[7].(bool),
	}
	var err error
	if op.Kind, err = opKindOf(row[3].(int64)); err != nil {
		return opHead{}, err
	}
	payload, err := d.opPayload(row)
	if err != nil {
		return opHead{}, err
	}
	n, err := util.PayloadLen(payload)
	if err != nil {
		return opHead{}, fmt.Errorf("core: char IDs of op %v: %w", op.ID, err)
	}
	op.Chars = int32(n)
	return op, nil
}

// undoable reports whether an operation kind participates in undo history:
// the kinds up to opLayoutRemove.
func undoable(kind opKind) bool {
	return kind <= opLayoutRemove
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
			ID: op.ID, User: op.User, Kind: op.Kind.String(), Chars: int(op.Chars),
			Ref: op.Ref, Created: time.Unix(0, op.Created).UTC(), Undone: op.Undone,
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
	ti := d.lastOpLocked(user, local, undoable)
	if ti < 0 {
		return util.NilID, 0, ErrNothingToUndo
	}
	return d.revertLocked(user, awareness.EvUndo, ti, d.ops[ti].ID, opFlag{ti, true})
}

func (d *Document) redo(user string, local bool) (util.ID, error) {
	return commitLocked(d, user, RWrite, func() (util.ID, wal.LSN, error) {
		return d.redoLocked(user, local)
	})
}

func (d *Document) redoLocked(user string, local bool) (util.ID, wal.LSN, error) {
	ui := d.lastOpLocked(user, local, func(kind opKind) bool { return kind == opUndo })
	if ui < 0 {
		return util.NilID, 0, ErrNothingToRedo
	}
	ti := slices.IndexFunc(d.ops, func(op opHead) bool { return op.ID == d.ops[ui].Ref })
	if ti < 0 {
		return util.NilID, 0, ErrNothingToRedo
	}
	// Redo reverts exactly the set the undo flipped (recorded on the undo
	// op), not the target's full list — characters hidden by other users'
	// operations stay hidden.
	return d.revertLocked(user, awareness.EvRedo, ti, d.ops[ui].ID, opFlag{ti, false}, opFlag{ui, true})
}

// lastOpLocked returns the index of the newest op not undone whose kind
// pred accepts — user's own when local — or -1.
func (d *Document) lastOpLocked(user string, local bool, pred func(kind opKind) bool) int {
	for i := len(d.ops) - 1; i >= 0; i-- {
		if op := &d.ops[i]; pred(op.Kind) && !op.Undone && (!local || op.User == user) {
			return i
		}
	}
	return -1
}

// revertLocked undoes (EvUndo) or redoes (EvRedo) the op d.ops[ti] over
// the instances the row of op from lists (the cache holds no IDs), as an
// edit batch of one step. The step's log record becomes the "undo" or
// "redo" row: it refs the op and lists the instances the undo flipped, or
// the op's own, read from its row, for a redo. flags are the undone flags
// the batch sets; the event names the op's kind and size.
func (d *Document) revertLocked(user string, kind awareness.EventKind, ti int, from util.ID, flags ...opFlag) (util.ID, wal.LSN, error) {
	target := d.ops[ti]
	ids, err := d.opIDs(from)
	if err != nil {
		return util.NilID, 0, err
	}
	st := getBatch(user, d.eng.clock.Now())
	defer st.release()
	if err := d.stageRevertLocked(st, target, ids, kind == awareness.EvUndo); err != nil {
		return util.NilID, 0, err
	}
	rec := &st.opRecs[0]
	rec.Kind, rec.Ref = opUndo, target.ID
	if kind == awareness.EvRedo {
		rec.Kind = opRedo
		if rec.CharIDs, err = d.opIDs(target.ID); err != nil {
			return util.NilID, 0, err
		}
	}
	st.undone = append(st.undone, flags...)
	st.undo = awareness.Event{Kind: kind, Name: target.Kind.String(), N: int(target.Chars)}
	_, lsn, err := d.commitBatchLocked(st)
	if err != nil {
		return util.NilID, 0, err
	}
	return rec.ID, lsn, nil
}

// stageRevertLocked stages the one step that undoes (undo) or redoes
// (!undo) op over the instances ids: hiding them through the batch's
// delete op, restoring them through the restore step, or flipping a
// span's removed flag through the span-flag step. The step's log record
// is the caller's to relabel as the undo or redo row.
func (d *Document) stageRevertLocked(st *batchState, op opHead, ids util.IDs, undo bool) error {
	switch op.Kind {
	case opInsert, opPaste, opDelete:
		// An empty set flips nothing either way; the delete op refuses a
		// delete of nothing, so the restore step takes it.
		if (op.Kind == opDelete) == undo || ids.Len() == 0 {
			return d.stageRestoreLocked(st, ids)
		}
		return d.stageDeleteLocked(st, ids, 0)
	case opLayout, opLayoutRemove:
		return d.stageSpanFlagLocked(st, op.Ref, (op.Kind == opLayout) == undo)
	}
	return fmt.Errorf("core: a %s op cannot be reverted", op.Kind)
}
