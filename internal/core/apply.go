package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
	"unicode/utf8"

	"tendax/internal/awareness"
	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
	"tendax/internal/wal"
)

// This file is the document's one mutation path: every text, layout and
// note edit is a batch of edit operations — inserts and notes anchored by
// character-instance ID or by position, deletes and layouts addressing
// explicit instances or a positional range — applied as ONE database
// transaction under ONE document-lock acquisition, confirmed by ONE
// group-commit wait, and announced by ONE awareness push. A pipelining
// client coalesces keystrokes into these batches, so the per-edit costs
// (request round-trip, lock handoff, fsync wait, push fan-out) are paid
// once per batch instead of once per keystroke; the positional methods at
// the end of the file are one-op batches. Undo, redo and span removal are
// batches of one step each: a delete, or one of the two steps only the
// engine stages (restore, span flag).

// Edit-op kinds accepted by Apply.
const (
	EditInsert = "insert"
	EditDelete = "delete"
	EditLayout = "layout"
	EditNote   = "note"
)

// EditOp is one operation of a batch. Anchoring:
//
//   - insert: UseAnchor types the text after instance Anchor (NilID =
//     front of document — a tombstone anchor is valid and resolves to
//     where its text would resume); AnchorPrev types after the last
//     instance created by an earlier insert of the same batch (the
//     pipelined-typing case; the caller seeds cross-batch continuation by
//     rewriting the first AnchorPrev op to an explicit anchor); otherwise
//     Pos is the positional fallback, resolved against the batch-start
//     state, with Pos < 0 meaning the end of the document (resolved under
//     the document lock, so concurrent appenders never split each other's
//     runs). A non-nil SrcDoc makes the insert a paste.
//   - delete: Chars lists the instances to tombstone (already-deleted and
//     archived ones are skipped — deletion by identity commutes);
//     otherwise Pos/N resolves against the batch-start state.
//   - layout: Chars lists the spanned instances (first/last anchor the
//     span); AnchorPrev spans everything the previous insert op of this
//     batch created (the "type a heading and style it, one transaction"
//     idiom); Pos/N fallback.
//   - note: UseAnchor anchors at instance Anchor; Pos fallback (the
//     instance at Pos).
type EditOp struct {
	Kind       string
	Anchor     util.ID
	UseAnchor  bool
	AnchorPrev bool
	Pos        int
	Text       string
	N          int
	Chars      []util.ID
	Span       string // layout span kind
	Value      string // layout span value

	// SrcDoc and SrcChars are an insert's provenance: the document the text
	// was copied from and, rune for rune, the copied instances. In-process
	// only — no wire op carries them.
	SrcDoc   util.ID
	SrcChars []util.ID
}

// EditResult reports one applied op: the logged operation ID, the
// character instances the op created (insert/note) or flipped (delete),
// the span created (layout/note), and the visible position the op
// resolved to at commit time.
type EditResult struct {
	OpID util.ID
	IDs  []util.ID
	Span util.ID
	Pos  int
}

// Apply is ApplyAsync plus the durability wait: when it returns, every op
// of the batch is on stable storage.
func (d *Document) Apply(user string, ops []EditOp) ([]EditResult, error) {
	res, lsn, err := d.ApplyAsync(user, ops)
	if err != nil {
		return nil, err
	}
	if err := d.eng.WaitDurable(lsn); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyAsync applies a batch of edit operations as one transaction: one
// document-lock acquisition, one WAL commit, one awareness push carrying
// the whole batch. The batch is atomic — if any op fails to resolve, no
// op is applied. Durability is left to the caller (Engine.WaitDurable on
// the returned LSN), outside the document lock, so concurrent batches
// share one group-commit fsync.
func (d *Document) ApplyAsync(user string, ops []EditOp) ([]EditResult, wal.LSN, error) {
	if err := d.eng.allowed(user, d.id, RWrite); err != nil {
		return nil, 0, err
	}
	if len(ops) == 0 {
		return nil, 0, fmt.Errorf("core: empty edit batch")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := getBatch(user, d.eng.clock.Now())
	defer st.release()
	if err := d.stageBatchLocked(st, ops); err != nil {
		return nil, 0, err
	}
	return d.commitBatchLocked(st)
}

// commitBatchLocked is the one persist → apply → publish sequence after a
// batch is staged: it writes the batch in one transaction, folds it into
// the buffer op by op once that has committed — resolving the positional
// form of every item as the state evolves — and publishes it as one
// awareness event. Caller holds d.mu.
func (d *Document) commitBatchLocked(st *batchState) ([]EditResult, wal.LSN, error) {
	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		return d.persistBatchLocked(tx, st)
	})
	if err != nil {
		return nil, 0, err
	}
	results, items, err := d.applyStagedLocked(st)
	if err != nil {
		return nil, 0, err
	}
	d.publishBatchLocked(st, items)
	return results, lsn, nil
}

// batchState is a staged edit batch: every row mutation computed and
// validated against the document state plus the batch's own earlier ops,
// before anything is persisted or applied. Instances are pooled (see
// batchPool): all slices, maps and the character arena are recycled
// across batches, so the steady-state commit path allocates per batch
// only what outlives it (result IDs, op-log heads).
type batchState struct {
	user string
	now  time.Time
	ops  []stagedOp

	created    []*texttree.Char // new instances, creation order (final records)
	createdSet map[util.ID]*texttree.Char
	updated    map[util.ID]*texttree.Char // existing instances with a flipped tombstone state
	spans      []db.Row                   // span rows to insert
	spanFlags  []db.Row                   // span rows with a flipped removed flag
	opRecs     []opRecord                 // one log row per op

	// rehydrate plans the archived instances the restore step brings back
	// into the hot set (at most one restore step per batch).
	rehydrate *texttree.RehydratePlan
	// undone lists the op-log entries whose undone flag flips (undo, redo).
	undone []opFlag
	// undo is the event header undo and redo publish in place of a batch
	// event: Kind EvUndo or EvRedo, naming the reverted op (Name, N).
	undo awareness.Event

	arena charArena     // backing store for per-batch character records
	rows  rowBuf        // encodes and splits the batch's chars rows
	opEnc db.RowEncoder // encodes the batch's op rows

	// rows.enc and opEnc keep their buffers across batches and deadlock
	// retries: persistBatchLocked resets them at the start of every
	// attempt. That is safe because a transaction's undo entries are the
	// only readers of the records once they are inserted, and the attempt
	// that wrote them has ended (committed, or aborted before the retry)
	// and dropped its entries before the buffers are reset.
}

// opFlag sets the undone flag of d.ops[i].
type opFlag struct {
	i      int
	undone bool
}

// charArena hands out blocks of texttree.Char with pool lifetime. Records
// allocated here are only reachable from the owning batchState: the buffer
// copies runs on InsertRun, persistence encodes fields into row records,
// and results carry IDs, never record pointers — so resetting the arena
// when the batch is released cannot be observed. A block is never grown in
// place (createdSet holds pointers into it); exhaustion allocates a fresh,
// larger block and strands the remainder of the old one, which stays alive
// exactly as long as the pointers into it do.
type charArena struct {
	buf  []texttree.Char
	next int
}

func (a *charArena) alloc(n int) []texttree.Char {
	if a.next+n > len(a.buf) {
		size := 4 * n
		if size < 1024 {
			size = 1024
		}
		a.buf = make([]texttree.Char, size)
		a.next = 0
	}
	s := a.buf[a.next : a.next+n : a.next+n]
	a.next += n
	return s
}

func (a *charArena) reset() { a.next = 0 }

var batchPool = sync.Pool{New: func() interface{} {
	return &batchState{
		createdSet: make(map[util.ID]*texttree.Char),
		updated:    make(map[util.ID]*texttree.Char),
	}
}}

// getBatch returns a pooled batchState for user's batch at now. Staging
// state is pooled and arena-backed: a steady stream of batches recycles
// the same stagedOp slices, per-batch maps and character-record blocks
// instead of re-allocating them per commit. Nothing reachable from st
// survives the batch (the buffer, the op log and the results all take
// their own copies), so the caller releases it on every return.
func getBatch(user string, now time.Time) *batchState {
	st := batchPool.Get().(*batchState)
	st.user, st.now = user, now
	return st
}

// release resets st and returns it to the pool.
func (st *batchState) release() {
	st.reset()
	batchPool.Put(st)
}

// reset clears the state for reuse, zeroing slice elements so recycled
// batches do not pin the previous batch's op records and ID slices.
func (st *batchState) reset() {
	st.user = ""
	st.now = time.Time{}
	for i := range st.ops {
		st.ops[i] = stagedOp{}
	}
	st.ops = st.ops[:0]
	for i := range st.created {
		st.created[i] = nil
	}
	st.created = st.created[:0]
	clear(st.rows.recs)
	st.rows.recs = st.rows.recs[:0]
	clear(st.createdSet)
	clear(st.updated)
	for i := range st.spans {
		st.spans[i] = nil
	}
	st.spans = st.spans[:0]
	for i := range st.spanFlags {
		st.spanFlags[i] = nil
	}
	st.spanFlags = st.spanFlags[:0]
	clear(st.opRecs)
	st.opRecs = st.opRecs[:0]
	st.rehydrate = nil
	st.undone = st.undone[:0]
	st.undo = awareness.Event{}
	st.arena.reset()
}

// The steps only the engine stages: no EditOp kind names them, so no
// wire op reaches them (stageBatchLocked refuses unknown kinds).
const (
	stepRestore  = "restore"   // undo of a delete, redo of an insert
	stepSpanFlag = "span-flag" // RemoveSpan, undo and redo of a layout
)

// stagedOp carries what the apply phase needs to replay one op against
// the buffer after commit.
type stagedOp struct {
	kind   string
	opID   util.ID
	spanID util.ID
	anchor util.ID         // insert: resolved predecessor; layout, note, span flag: first instance named
	srcDoc util.ID         // insert: paste source document
	chars  []texttree.Char // insert: records as created (visible), value copies
	flips  util.IDs        // delete, restore: instances whose visibility flips
	ids    util.IDs        // insert: minted instances
	text   string          // insert/note text; layout: "kind=value"; span flag: event name
	pos    int             // pos-fallback ops: requested position (apply recomputes committed pos)
	n      int
}

// charLocked resolves an instance against the staged state first, then
// the hot buffer; d.mu is held by the batch pipeline.
func (st *batchState) charLocked(d *Document, id util.ID) (texttree.Char, bool) {
	if ch, ok := st.createdSet[id]; ok {
		return *ch, true
	}
	if ch, ok := st.updated[id]; ok {
		return *ch, true
	}
	return d.buf.Char(id)
}

// setLocked replaces the staged record of an instance, copying a hot
// record on first touch so published snapshots keep their frozen state;
// d.mu is held by the batch pipeline.
func (st *batchState) setLocked(d *Document, id util.ID, mut func(*texttree.Char)) error {
	if ch, ok := st.createdSet[id]; ok {
		mut(ch)
		return nil
	}
	if ch, ok := st.updated[id]; ok {
		mut(ch)
		return nil
	}
	cp, ok := d.buf.Char(id)
	if !ok {
		return fmt.Errorf("%w: %v", texttree.ErrUnknownChar, id)
	}
	mut(&cp)
	st.updated[id] = &cp
	return nil
}

// stageBatchLocked resolves every op of the batch in order against the evolving
// staged state, filling the (pooled, pre-reset) st. It never touches the
// buffer or the database: on error the document is exactly as before.
func (d *Document) stageBatchLocked(st *batchState, ops []EditOp) error {
	user, now := st.user, st.now
	var lastInsert util.IDs // the instances the batch's last insert op created

	for i, op := range ops {
		switch op.Kind {
		case EditInsert:
			prev, err := d.resolveInsertAnchorLocked(st, op, lastInsert.Last())
			if err != nil {
				return fmt.Errorf("core: batch op %d: %w", i, err)
			}
			n := utf8.RuneCountInString(op.Text)
			if n == 0 {
				return fmt.Errorf("core: batch op %d: empty insert", i)
			}
			// One reservation: the run's IDs form one progression however
			// many documents are minting, so the buffer keeps it as one
			// record, and the op row and the published item hold it as one
			// stretch. Only the result expands it (applyStagedLocked).
			first, step := d.eng.ids.NextN(n), util.ID(d.eng.ids.Stride())
			ids := util.Progression(first, int64(step), n)
			// Two arena blocks per insert: the records as created (replayed
			// into the buffer — a later delete op of the same batch must not
			// leak into them) and the final records (mutable via setLocked,
			// persisted with their end-of-batch state). Each record is
			// anchored after its predecessor with its own, freshly minted ID
			// as key, so it lands right after that predecessor; no existing
			// row changes.
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), anchor: prev,
				srcDoc: op.SrcDoc, text: op.Text, ids: ids, chars: st.arena.alloc(n)}
			recs := st.arena.alloc(n)
			j := 0
			for _, r := range op.Text {
				id := first + util.ID(j)*step
				ch := texttree.Char{ID: id, Rune: r, Author: user, Created: now,
					SourceDoc: op.SrcDoc}
				if j < len(op.SrcChars) {
					ch.SourceChar = op.SrcChars[j]
				}
				ch.After, ch.Key = prev, id
				if j > 0 {
					ch.After = id - step
				}
				sop.chars[j] = ch // value copy: the record as created
				recs[j] = ch
				st.created = append(st.created, &recs[j])
				st.createdSet[ch.ID] = &recs[j]
				j++
			}
			lastInsert = ids
			logKind := opInsert
			if !op.SrcDoc.IsNil() {
				logKind = opPaste
			}
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: logKind, CharIDs: ids, Created: now})
			st.ops = append(st.ops, sop)

		case EditDelete:
			targets := op.Chars
			if len(targets) == 0 {
				if op.N <= 0 {
					return fmt.Errorf("core: batch op %d: delete of %d chars", i, op.N)
				}
				targets = d.buf.RangeIDs(op.Pos, op.N)
				if len(targets) != op.N {
					return fmt.Errorf("core: batch op %d: %w: delete [%d,%d) of %d chars",
						i, ErrRange, op.Pos, op.Pos+op.N, d.buf.Len())
				}
			}
			var affected util.IDs
			for _, id := range targets {
				ch, ok := st.charLocked(d, id)
				if !ok {
					// Compaction may have archived the tombstone since the
					// client saw it — archived instances are deleted by
					// construction, so the delete already holds.
					if _, err := d.ensureArchiveLocked(); err != nil {
						return fmt.Errorf("core: batch op %d: %w", i, err)
					}
					if d.buf.Archive().Contains(id) {
						continue
					}
					return fmt.Errorf("core: batch op %d: %w: %v", i, texttree.ErrUnknownChar, id)
				}
				if ch.Deleted {
					continue // deletion by identity commutes
				}
				if err := st.setLocked(d, id, func(c *texttree.Char) {
					c.Deleted = true
					c.DeletedBy = user
					c.DeletedAt = now
					c.Restored = time.Time{}
				}); err != nil {
					return fmt.Errorf("core: batch op %d: %w", i, err)
				}
				affected.Append(id)
			}
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), flips: affected,
				pos: op.Pos, n: affected.Len()}
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: opDelete, CharIDs: affected, Created: now})
			st.ops = append(st.ops, sop)

		case EditLayout:
			ids := op.Chars
			if len(ids) == 0 && op.AnchorPrev {
				if lastInsert.Len() == 0 {
					return fmt.Errorf("core: batch op %d: prev anchor without a prior insert", i)
				}
				ids = lastInsert.AppendTo(nil)
			}
			if len(ids) == 0 {
				if op.N <= 0 {
					return fmt.Errorf("core: batch op %d: layout over %d chars", i, op.N)
				}
				ids = d.buf.RangeIDs(op.Pos, op.N)
				if len(ids) != op.N {
					return fmt.Errorf("core: batch op %d: %w: layout [%d,%d) of %d",
						i, ErrRange, op.Pos, op.Pos+op.N, d.buf.Len())
				}
			}
			for _, id := range ids {
				if _, ok := st.charLocked(d, id); !ok {
					return fmt.Errorf("core: batch op %d: %w: %v", i, texttree.ErrUnknownChar, id)
				}
			}
			spanID := d.eng.ids.Next()
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), spanID: spanID,
				anchor: ids[0], n: len(ids), text: op.Span + "=" + op.Value}
			st.spans = append(st.spans, db.Row{
				int64(spanID), int64(d.id), op.Span, op.Value,
				int64(ids[0]), int64(ids[len(ids)-1]), user, now, false,
			})
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: opLayout, Ref: spanID, Created: now})
			st.ops = append(st.ops, sop)

		case EditNote:
			var anchor util.ID
			switch {
			case op.UseAnchor:
				anchor = op.Anchor
				if _, ok := st.charLocked(d, anchor); !ok {
					return fmt.Errorf("core: batch op %d: %w: %v", i, texttree.ErrUnknownChar, anchor)
				}
			case op.AnchorPrev:
				if lastInsert.Len() == 0 {
					return fmt.Errorf("core: batch op %d: prev anchor without a prior insert", i)
				}
				anchor = lastInsert.Last()
			default:
				id, ok := d.buf.IDAt(op.Pos)
				if !ok {
					return fmt.Errorf("core: batch op %d: %w: note at %d of %d",
						i, ErrRange, op.Pos, d.buf.Len())
				}
				anchor = id
			}
			spanID := d.eng.ids.Next()
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), spanID: spanID,
				anchor: anchor, text: op.Text}
			st.spans = append(st.spans, db.Row{
				int64(spanID), int64(d.id), SpanNote, op.Text,
				int64(anchor), int64(anchor), user, now, false,
			})
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: opLayout, Ref: spanID, Created: now})
			st.ops = append(st.ops, sop)

		default:
			return fmt.Errorf("core: batch op %d: unknown kind %q", i, op.Kind)
		}
	}
	return nil
}

// stageRestoreLocked stages the restore step of an undo or redo: the
// given instances become visible again. Hot tombstones flip through
// setLocked, keeping their deletion interval for time travel; archived
// ones are planned back into the hot set (rehydration), their rows
// inserted already flipped. Instances already visible are skipped, so
// selective undo over tombstones commutes per character. The step's log
// record is minted after the rehydration keys, so it outranks them: an
// engine reopened on the data seeds its ID generator above those keys.
func (d *Document) stageRestoreLocked(st *batchState, ids []util.ID) error {
	if _, err := d.ensureArchiveLocked(); err != nil {
		return err
	}
	var flips util.IDs
	var archived []util.ID
	for _, id := range ids {
		ch, ok := st.charLocked(d, id)
		switch {
		case ok && !ch.Deleted:
		case ok:
			if err := st.setLocked(d, id, func(c *texttree.Char) {
				c.Deleted = false
				c.Restored = st.now
			}); err != nil {
				return err
			}
			flips.Append(id)
		case d.buf.Archive().Contains(id):
			archived = append(archived, id)
		default:
			return fmt.Errorf("%w: %v", texttree.ErrUnknownChar, id)
		}
	}
	if len(archived) > 0 {
		plan, err := d.buf.PlanRehydrate(archived, d.eng.ids.Next)
		if err != nil {
			return err
		}
		st.rehydrate = plan
		recs := st.arena.alloc(len(plan.Chars))
		for i, ch := range plan.Chars {
			ch.Deleted, ch.Restored = false, st.now
			recs[i] = ch
			st.created = append(st.created, &recs[i])
		}
		for _, id := range archived {
			flips.Append(id)
		}
	}
	sop := stagedOp{kind: stepRestore, opID: d.eng.ids.Next(), flips: flips}
	st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: st.user,
		Kind: opRestore, CharIDs: flips, Created: st.now})
	st.ops = append(st.ops, sop)
	return nil
}

// stageSpanFlagLocked stages the span-flag step: span spanID of this
// document is removed (RemoveSpan, undo of a layout, redo of a removal)
// or restored (undo of a removal, redo of a layout). Its one layout item
// at the span's start makes the indexer re-resolve headings.
func (d *Document) stageSpanFlagLocked(st *batchState, spanID util.ID, removed bool) error {
	row, _, err := d.eng.tSpans.GetByPK(nil, int64(spanID))
	if err != nil {
		return err
	}
	if util.ID(row[1].(int64)) != d.id {
		return fmt.Errorf("core: span %v belongs to another document", spanID)
	}
	row[8] = removed
	st.spanFlags = append(st.spanFlags, row)
	sop := stagedOp{kind: stepSpanFlag, opID: d.eng.ids.Next(), spanID: spanID,
		anchor: util.ID(row[4].(int64)), text: "remove"}
	st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: st.user,
		Kind: opLayoutRemove, Ref: spanID, Created: st.now})
	st.ops = append(st.ops, sop)
	return nil
}

// resolveInsertAnchorLocked turns an insert op's anchor into the instance
// the new text is typed after.
func (d *Document) resolveInsertAnchorLocked(st *batchState, op EditOp, lastInsert util.ID) (util.ID, error) {
	switch {
	case op.AnchorPrev:
		if lastInsert.IsNil() {
			return util.NilID, fmt.Errorf("core: prev anchor without a prior insert in the batch")
		}
		return lastInsert, nil
	case op.UseAnchor:
		if op.Anchor.IsNil() {
			return util.NilID, nil // front of document
		}
		if _, ok := st.charLocked(d, op.Anchor); ok {
			return op.Anchor, nil
		}
		// The anchor may have been archived by compaction since the client
		// learned it. Every archived instance is invisible, so inserting
		// after its run's surviving hot anchor lands at the same visible
		// position the archived instance's text would resume at.
		if _, err := d.ensureArchiveLocked(); err != nil {
			return util.NilID, err
		}
		if hot, ok := d.buf.Archive().AnchorOf(op.Anchor); ok {
			return hot, nil
		}
		return util.NilID, fmt.Errorf("core: unknown anchor %v", op.Anchor)
	default:
		pos := op.Pos
		if pos < 0 {
			pos = d.buf.Len()
		}
		prev, err := d.buf.PredecessorForInsert(pos)
		if err != nil {
			return util.NilID, fmt.Errorf("%w: insert at %d of %d", ErrRange, pos, d.buf.Len())
		}
		return prev, nil
	}
}

// persistBatchLocked writes the staged batch inside one transaction: the
// new and rehydrated instances as one chars row per run (final tombstone
// state, so each row is written exactly once even when a later op of the
// same batch deleted part of it), the rows holding pre-existing instances
// whose tombstone state flipped, split where the flip ends inside them,
// span rows and span flags, the archive runs a rehydration shrinks, undone
// flags, one log row per op, and, on the user's first edit, their name in
// the docs row.
func (d *Document) persistBatchLocked(tx *txn.Txn, st *batchState) error {
	d.eng.tChars.ResetEncoder(&st.rows.enc)
	d.eng.tOps.ResetEncoder(&st.opEnc)
	if err := d.insertRuns(tx, &st.rows, st.created); err != nil {
		return err
	}
	if len(st.updated) > 0 {
		changes := make([]rowChange, 0, len(st.updated))
		for id, ch := range st.updated {
			changes = append(changes, rowChange{id, ch})
		}
		slices.SortFunc(changes, func(a, b rowChange) int { return cmp.Compare(a.id, b.id) })
		if err := d.rewriteRuns(tx, &st.rows, changes); err != nil {
			return err
		}
	}
	for _, row := range st.spans {
		if _, err := d.eng.tSpans.Insert(tx, row); err != nil {
			return err
		}
	}
	for _, row := range st.spanFlags {
		if err := d.eng.tSpans.UpdateByPK(tx, row[0].(int64), row); err != nil {
			return err
		}
	}
	if st.rehydrate != nil {
		for anchor, run := range st.rehydrate.RunUpdates {
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
	for _, f := range st.undone {
		if err := d.setOpUndone(tx, d.ops[f.i].ID, f.undone); err != nil {
			return err
		}
	}
	for i := range st.opRecs {
		if err := d.writeOpRow(tx, &st.opEnc, &st.opRecs[i]); err != nil {
			return err
		}
	}
	return d.addAuthorLocked(tx, st.user)
}

// applyStagedLocked folds the committed batch into the buffer op by op and
// returns the per-op results plus the positional batch items for the
// awareness push. Caller holds d.mu; the transaction has committed.
func (d *Document) applyStagedLocked(st *batchState) ([]EditResult, []awareness.BatchItem, error) {
	for _, f := range st.undone {
		d.ops[f.i].Undone = f.undone
	}
	results := make([]EditResult, 0, len(st.ops))
	var items []awareness.BatchItem
	for _, sop := range st.ops {
		switch sop.kind {
		case EditInsert:
			pos := 0
			if !sop.anchor.IsNil() {
				r, ok := d.buf.RankOf(sop.anchor)
				if !ok {
					return nil, nil, fmt.Errorf("core: buffer diverged: lost anchor %v", sop.anchor)
				}
				pos = r
				if anchor, _ := d.buf.Char(sop.anchor); !anchor.Deleted {
					pos++
				}
			}
			// One batched splice for the whole run: the buffer copies the
			// records, so the arena-backed staging slice is reusable the
			// moment this returns.
			if _, err := d.buf.InsertRun(sop.anchor, sop.chars); err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			kind := awareness.EvInsert
			if !sop.srcDoc.IsNil() {
				kind = awareness.EvPaste
			}
			items = append(items, awareness.BatchItem{Kind: kind,
				Pos: pos, Text: sop.text, N: sop.ids.Len(), IDs: sop.ids, SrcDoc: sop.srcDoc})
			results = append(results, EditResult{OpID: sop.opID, IDs: sop.ids.AppendTo(nil), Pos: pos})

		case EditDelete:
			resPos, hidden, flips := sop.pos, 0, sop.flips.AppendTo(nil)
			err := d.buf.Delete(flips, st.user, st.now, func(k, pos int) {
				if k == 0 {
					resPos = pos
				}
				items = appendFlip(items, awareness.EvDelete, pos, flips[k], k > 0)
				hidden++
			})
			if err == nil && hidden != len(flips) {
				err = fmt.Errorf("%d of %d instances already hidden", len(flips)-hidden, len(flips))
			}
			if err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			results = append(results, EditResult{OpID: sop.opID, IDs: flips, Pos: resPos})

		case stepRestore:
			if err := d.buf.ApplyRehydrate(st.rehydrate); err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			first, resPos, flips := len(items), 0, sop.flips.AppendTo(nil)
			err := d.buf.Undelete(flips, st.now, func(k, pos int) {
				if k == 0 {
					resPos = pos
				}
				items = appendFlip(items, awareness.EvInsert, pos, flips[k], k > 0)
			})
			if err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			runes := make([]rune, 0, len(flips)) // restored text, in flip order
			for _, id := range flips {
				ch, _ := d.buf.Char(id)
				runes = append(runes, ch.Rune)
			}
			for i := first; i < len(items); i++ {
				items[i].Text, runes = string(runes[:items[i].N]), runes[items[i].N:]
			}
			results = append(results, EditResult{OpID: sop.opID, IDs: flips, Pos: resPos})

		case EditLayout, stepSpanFlag:
			pos := 0
			if p, ok := d.buf.RankOf(sop.anchor); ok {
				pos = p
			}
			items = append(items, awareness.BatchItem{Kind: awareness.EvLayout,
				Pos: pos, N: sop.n})
			results = append(results, EditResult{OpID: sop.opID, Span: sop.spanID, Pos: pos})

		case EditNote:
			pos := 0
			if p, ok := d.buf.RankOf(sop.anchor); ok {
				pos = p
			}
			items = append(items, awareness.BatchItem{Kind: awareness.EvNote,
				Pos: pos, Text: sop.text})
			results = append(results, EditResult{OpID: sop.opID, Span: sop.spanID,
				IDs: []util.ID{sop.anchor}, Pos: pos})
		}
		d.appendOpLocked(st.opRecs[len(results)-1].head())
	}
	return results, items, nil
}

// appendFlip appends one instance that turned hidden (EvDelete) or visible
// (EvInsert) at visible position pos. With merge set it extends the last
// item instead when the two are contiguous: a delete at the position the
// deletes before it collapsed onto, or an insert right after the text the
// inserts before it restored; a run of such instances is one stretch of
// the item's IDs. An insert item's Text is the caller's to fill.
func appendFlip(items []awareness.BatchItem, kind awareness.EventKind, pos int, id util.ID, merge bool) []awareness.BatchItem {
	if n := len(items) - 1; merge && n >= 0 && items[n].Kind == kind {
		end := items[n].Pos
		if kind == awareness.EvInsert {
			end += items[n].N
		}
		if end == pos {
			items[n].N++
			items[n].IDs.Append(id)
			return items
		}
	}
	return append(items, awareness.BatchItem{Kind: kind, Pos: pos, N: 1, IDs: util.Progression(id, 0, 1)})
}

// publishBatchLocked announces the committed batch as ONE awareness event:
// an undo or redo publishes its own header with the items in Batch; a
// single-item batch keeps the single-op event kind and shape (a lone
// layout names its span as "kind=value", a span removal as "remove"), a
// multi-item batch publishes EvBatch with the
// items in order. Either way the batch consumes one sequence number.
func (d *Document) publishBatchLocked(st *batchState, items []awareness.BatchItem) {
	ev := st.undo
	ev.Doc, ev.User, ev.OpID, ev.At = d.id, st.user, st.opRecs[0].ID, st.now
	switch {
	case ev.Kind != "":
		ev.Batch = items
	case len(items) == 1:
		it := items[0]
		ev.Kind = it.Kind
		ev.Pos = it.Pos
		ev.Text = it.Text
		ev.N = it.N
		ev.IDs = it.IDs
		ev.SrcDoc = it.SrcDoc
		if it.Kind == awareness.EvLayout {
			for i := range st.ops {
				if k := st.ops[i].kind; k == EditLayout || k == stepSpanFlag {
					ev.Name = st.ops[i].text
					break
				}
			}
		}
	default:
		ev.Kind = awareness.EvBatch
		ev.Batch = items
	}
	d.publishEventLocked(ev)
}

// The positional API: each method is a one-op batch through Apply, so it
// stages, persists and publishes exactly as an edit batch does.

// applyOne applies op as a batch of one and returns its result.
func (d *Document) applyOne(user string, op EditOp) (EditResult, error) {
	res, err := d.Apply(user, []EditOp{op})
	if err != nil {
		return EditResult{}, err
	}
	return res[0], nil
}

// InsertText types text at visible position pos on behalf of user, as one
// transaction. It returns the operation ID.
func (d *Document) InsertText(user string, pos int, text string) (util.ID, error) {
	res, err := d.applyOne(user, EditOp{Kind: EditInsert, Pos: pos, Text: text})
	return res.OpID, err
}

// AppendText types text at the end of the document. Unlike InsertText with
// a caller-computed position, the end position is resolved under the
// document lock, so concurrent appenders never interleave inside each
// other's runs.
func (d *Document) AppendText(user string, text string) (util.ID, error) {
	return d.InsertText(user, -1, text)
}

// Paste inserts clipboard content at pos, recording per-character
// provenance links back to the source characters (the data-lineage raw
// material, Figure 1).
func (d *Document) Paste(user string, pos int, clip Clipboard) (util.ID, error) {
	res, err := d.applyOne(user, EditOp{Kind: EditInsert, Pos: pos, Text: clip.Text,
		SrcDoc: clip.SrcDoc, SrcChars: clip.SrcChars})
	return res.OpID, err
}

// DeleteRange deletes n visible characters starting at pos, as one
// transaction. Characters become tombstones (logical deletion), preserving
// history, versions and provenance.
func (d *Document) DeleteRange(user string, pos, n int) (util.ID, error) {
	res, err := d.applyOne(user, EditOp{Kind: EditDelete, Pos: pos, N: n})
	return res.OpID, err
}

// ApplyLayout annotates the visible range [pos, pos+n) with a layout or
// structure span, as one transaction. Returns the new span's ID.
func (d *Document) ApplyLayout(user string, pos, n int, kind, value string) (util.ID, error) {
	res, err := d.applyOne(user, EditOp{Kind: EditLayout, Pos: pos, N: n, Span: kind, Value: value})
	return res.Span, err
}

// SetHeading marks [pos, pos+n) as a heading of the given level (structure
// definition in the paper's terms).
func (d *Document) SetHeading(user string, pos, n, level int) (util.ID, error) {
	return d.ApplyLayout(user, pos, n, SpanHeading, fmt.Sprintf("%d", level))
}

// InsertNote attaches a note to the visible character at pos.
func (d *Document) InsertNote(user string, pos int, text string) (util.ID, error) {
	res, err := d.applyOne(user, EditOp{Kind: EditNote, Pos: pos, Text: text})
	return res.Span, err
}
