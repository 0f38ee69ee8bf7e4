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
// before anything is persisted or applied. Nothing in it is per
// character: new instances are runs, changed ones stretches. Instances
// are pooled (see batchPool): all slices are recycled across batches, so
// the steady-state commit path allocates per batch only what outlives it
// (result IDs, op-log heads).
type batchState struct {
	user string
	now  time.Time
	ops  []stagedOp

	// runs are the batch's new instances in the order created, in row
	// form with their state at the end of the batch: an insert op stages
	// one run, a later op that deletes part of it cuts it around that
	// part, and a rehydrated instance is a run of its own. The runs of
	// insert ops ascend by ID, so an op finds an instance among them by
	// binary search.
	runs []stagedRun
	// flips are the existing instances whose deletion state the batch
	// flips, in the order flipped, each a stretch of one buffer record.
	flips     []rowEdit
	spans     []db.Row   // span rows to insert
	spanFlags []db.Row   // span rows with a flipped removed flag
	opRecs    []opRecord // one log row per op

	// rehydrate plans the archived instances the restore step brings back
	// into the hot set (at most one restore step per batch).
	rehydrate *texttree.RehydratePlan
	// undone lists the op-log entries whose undone flag flips (undo, redo).
	undone []opFlag
	// undo is the event header undo and redo publish in place of a batch
	// event: Kind EvUndo or EvRedo, naming the reverted op (Name, N).
	undo awareness.Event

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

var batchPool = sync.Pool{New: func() interface{} { return new(batchState) }}

// getBatch returns a pooled batchState for user's batch at now. A steady
// stream of batches recycles the same staging slices instead of
// re-allocating them per commit. Nothing reachable from st survives the
// batch (the buffer, the op log and the results all take their own
// copies), so the caller releases it on every return.
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
// batches do not pin the previous batch's texts, records and ID slices.
func (st *batchState) reset() {
	st.user = ""
	st.now = time.Time{}
	clear(st.ops)
	st.ops = st.ops[:0]
	clear(st.runs)
	st.runs = st.runs[:0]
	st.flips = st.flips[:0]
	clear(st.rows.recs)
	st.rows.recs = st.rows.recs[:0]
	clear(st.spans)
	st.spans = st.spans[:0]
	clear(st.spanFlags)
	st.spanFlags = st.spanFlags[:0]
	clear(st.opRecs)
	st.opRecs = st.opRecs[:0]
	st.rehydrate = nil
	st.undone = st.undone[:0]
	st.undo = awareness.Event{}
}

// The steps only the engine stages: no EditOp kind names them, so no
// wire op reaches them (stageBatchLocked refuses unknown kinds).
const (
	stepRestore  = "restore"   // undo of a delete, redo of an insert
	stepSpanFlag = "span-flag" // removeSpan, undo and redo of a layout
)

// stagedOp carries what the apply phase needs to replay one op against
// the buffer after commit.
type stagedOp struct {
	kind   string
	opID   util.ID
	spanID util.ID
	anchor util.ID      // insert: resolved predecessor; layout, note, span flag: first instance named
	run    texttree.Run // insert: the run as created (visible), its paste source document
	src    []util.ID    // insert: the paste's per-instance sources, or nil
	flips  util.IDs     // delete, restore: instances whose visibility flips
	ids    util.IDs     // insert: minted instances
	text   string       // insert/note text; layout: "kind=value"; span flag: event name
	pos    int          // pos-fallback ops: requested position (apply recomputes committed pos)
	n      int
}

// runAt returns the index of the staged insert run holding id and id's
// offset in it, or -1.
func (st *batchState) runAt(id util.ID) (int, int) {
	i, _ := slices.BinarySearchFunc(st.runs, id, func(r stagedRun, id util.ID) int { return cmp.Compare(r.First, id+1) })
	if i--; i >= 0 {
		if k := st.runs[i].index(id); k >= 0 {
			return i, k
		}
	}
	return -1, 0
}

// knownLocked reports whether id is a hot instance of the document or one
// the batch staged; d.mu is held by the batch pipeline.
func (st *batchState) knownLocked(d *Document, id util.ID) bool {
	if i, _ := st.runAt(id); i >= 0 {
		return true
	}
	n, _ := d.buf.Holds(util.Stretch{First: id, N: 1})
	return n > 0
}

// deleteStaged marks the instances [lo, hi) of staged run i deleted by the
// batch's user, cutting the run around them.
func (st *batchState) deleteStaged(i, lo, hi int) {
	r := &st.runs[i]
	var parts [3]stagedRun
	k := 0
	if lo > 0 {
		parts[k], k = r.sub(0, lo), k+1
	}
	parts[k] = r.sub(lo, hi)
	parts[k].Deleted, parts[k].DeletedBy, parts[k].DeletedAt, parts[k].Restored = true, st.user, st.now, time.Time{}
	if k++; hi < r.n {
		parts[k], k = r.sub(hi, r.n), k+1
	}
	st.runs = slices.Replace(st.runs, i, i+1, parts[:k]...)
}

// flipped reports whether an earlier op of the batch flipped id.
func (st *batchState) flipped(id util.ID) bool {
	for i := range st.flips {
		if st.flips[i].holds(id) {
			return true
		}
	}
	return false
}

// stageFlipsLocked stages the flip of the instances ids, in order, to
// deleted (del) or visible, as if one at a time: an instance already in
// that state — in the buffer, or after an earlier op of the batch — is
// skipped. Instances the batch created are cut out of their staged run;
// hot ones are staged as stretches of their buffer record. It returns the
// instances it flips, in order, and the archived ones it meets, which a
// delete skips (archived instances are deleted by construction) and a
// restore rehydrates. It fails on an instance the document never held.
func (d *Document) stageFlipsLocked(st *batchState, ids util.IDs, del bool) (flips util.IDs, archived []util.ID, err error) {
	for k := 0; k < ids.Stretches(); k++ {
		s := ids.Stretch(k)
		for j := 0; j < s.N; {
			rest := util.Stretch{First: s.At(j), Step: s.Step, N: s.N - j}
			n, err := d.stageFlipLocked(st, rest, del, &flips, &archived)
			if err != nil {
				return util.IDs{}, nil, err
			}
			j += n
		}
	}
	return flips, archived, nil
}

// stageFlipLocked stages the flip of the instances of s from its first on
// that lie in one place — one staged run, one buffer record, or the
// archive — and returns how many it took.
func (d *Document) stageFlipLocked(st *batchState, s util.Stretch, del bool, flips *util.IDs, archived *[]util.ID) (int, error) {
	if i, k := st.runAt(s.First); i >= 0 {
		r := &st.runs[i]
		n := 1
		if s.N > 1 && s.Step == int64(r.Step) {
			n = min(s.N, r.n-k)
		}
		// A restore step is a batch of its own, so only a delete meets
		// the batch's own instances.
		if del && !r.Deleted {
			st.deleteStaged(i, k, k+n)
			flips.AppendRun(s.First, s.Step, n)
		}
		return n, nil
	}
	n, deleted := d.buf.Holds(s)
	if n == 0 {
		// Compaction may have archived the instance since the client saw
		// it.
		if _, err := d.ensureArchiveLocked(); err != nil {
			return 0, err
		}
		if !d.buf.Archive().Contains(s.First) {
			return 0, fmt.Errorf("%w: %v", texttree.ErrUnknownChar, s.First)
		}
		if !del {
			*archived = append(*archived, s.First)
		}
		return 1, nil
	}
	step := util.ID(1)
	if n > 1 {
		step = util.ID(s.Step)
	}
	last := s.First + util.ID(n-1)*step
	met := false // an earlier op flipped an instance in s's range
	for i := range st.flips {
		met = met || st.flips[i].first <= last && st.flips[i].last() >= s.First
	}
	if !met {
		if deleted != del {
			st.flips = append(st.flips, rowEdit{first: s.First, step: step, n: n})
			flips.AppendRun(s.First, s.Step, n)
		}
		return n, nil
	}
	for j := 0; j < n; j++ {
		if id := s.First + util.ID(j)*step; deleted != st.flipped(id) != del {
			st.flips = append(st.flips, rowEdit{first: id, step: 1, n: 1})
			flips.Append(id)
		}
	}
	return n, nil
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
			text := op.Text
			if !utf8.ValidString(text) {
				text = string([]rune(text)) // each invalid byte is a U+FFFD
			}
			// One reservation: the run's IDs form one progression however
			// many documents are minting, so it is one staged run, one
			// buffer record, and one stretch in the op row and the
			// published item. Only the result expands it
			// (applyStagedLocked). The run is anchored after its
			// predecessor with its own, freshly minted first ID as key, so
			// it lands right after that predecessor; no existing row
			// changes.
			first, step := d.eng.ids.NextN(n), util.ID(d.eng.ids.Stride())
			ids := util.Progression(first, int64(step), n)
			run := texttree.Run{First: first, Step: step, After: prev, Key: first, Text: text,
				Author: user, Created: now, SourceDoc: op.SrcDoc}
			st.runs = append(st.runs, stagedRun{Run: run, n: n, src: op.SrcChars})
			lastInsert = ids
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), anchor: prev,
				text: op.Text, ids: ids, run: run, src: op.SrcChars}
			logKind := opInsert
			if !op.SrcDoc.IsNil() {
				logKind = opPaste
			}
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: logKind, CharIDs: ids, Created: now})
			st.ops = append(st.ops, sop)

		case EditDelete:
			var targets util.IDs
			if len(op.Chars) > 0 {
				targets = util.IDsOf(op.Chars)
			} else {
				if op.N <= 0 {
					return fmt.Errorf("core: batch op %d: delete of %d chars", i, op.N)
				}
				targets = d.buf.RangeStretches(op.Pos, op.N)
				if targets.Len() != op.N {
					return fmt.Errorf("core: batch op %d: %w: delete [%d,%d) of %d chars",
						i, ErrRange, op.Pos, op.Pos+op.N, d.buf.Len())
				}
			}
			if err := d.stageDeleteLocked(st, targets, op.Pos); err != nil {
				return fmt.Errorf("core: batch op %d: %w", i, err)
			}

		case EditLayout:
			var first, last util.ID
			var n int
			switch {
			case len(op.Chars) > 0:
				for _, id := range op.Chars {
					if !st.knownLocked(d, id) {
						return fmt.Errorf("core: batch op %d: %w: %v", i, texttree.ErrUnknownChar, id)
					}
				}
				first, last, n = op.Chars[0], op.Chars[len(op.Chars)-1], len(op.Chars)
			case op.AnchorPrev:
				if lastInsert.Len() == 0 {
					return fmt.Errorf("core: batch op %d: prev anchor without a prior insert", i)
				}
				first, last, n = lastInsert.At(0), lastInsert.Last(), lastInsert.Len()
			default:
				if op.N <= 0 {
					return fmt.Errorf("core: batch op %d: layout over %d chars", i, op.N)
				}
				ids := d.buf.RangeStretches(op.Pos, op.N)
				if ids.Len() != op.N {
					return fmt.Errorf("core: batch op %d: %w: layout [%d,%d) of %d",
						i, ErrRange, op.Pos, op.Pos+op.N, d.buf.Len())
				}
				first, last, n = ids.At(0), ids.Last(), op.N
			}
			spanID := d.eng.ids.Next()
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), spanID: spanID,
				anchor: first, n: n, text: op.Span + "=" + op.Value}
			st.spans = append(st.spans, db.Row{
				int64(spanID), int64(d.id), op.Span, op.Value,
				int64(first), int64(last), user, now, false,
			})
			st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: user,
				Kind: opLayout, Ref: spanID, Created: now})
			st.ops = append(st.ops, sop)

		case EditNote:
			var anchor util.ID
			switch {
			case op.UseAnchor:
				anchor = op.Anchor
				if !st.knownLocked(d, anchor) {
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

// stageDeleteLocked stages a delete op of the instances targets: those
// already deleted or archived are skipped (deletion by identity
// commutes). pos is a positional op's requested position.
func (d *Document) stageDeleteLocked(st *batchState, targets util.IDs, pos int) error {
	affected, _, err := d.stageFlipsLocked(st, targets, true)
	if err != nil {
		return err
	}
	sop := stagedOp{kind: EditDelete, opID: d.eng.ids.Next(), flips: affected,
		pos: pos, n: affected.Len()}
	st.opRecs = append(st.opRecs, opRecord{ID: sop.opID, User: st.user,
		Kind: opDelete, CharIDs: affected, Created: st.now})
	st.ops = append(st.ops, sop)
	return nil
}

// stageRestoreLocked stages the restore step of an undo or redo: the
// given instances become visible again. Hot tombstones are flipped as
// stretches, keeping their deletion interval for time travel; archived
// ones are planned back into the hot set (rehydration), their rows
// inserted already flipped. Instances already visible are skipped, so
// selective undo over tombstones commutes per character. The step's log
// record is minted after the rehydration keys, so it outranks them: an
// engine reopened on the data seeds its ID generator above those keys.
func (d *Document) stageRestoreLocked(st *batchState, ids util.IDs) error {
	if _, err := d.ensureArchiveLocked(); err != nil {
		return err
	}
	flips, archived, err := d.stageFlipsLocked(st, ids, false)
	if err != nil {
		return err
	}
	if len(archived) > 0 {
		plan, err := d.buf.PlanRehydrate(archived, d.eng.ids.Next)
		if err != nil {
			return err
		}
		st.rehydrate = plan
		for _, ch := range plan.Chars {
			st.runs = append(st.runs, stagedRun{n: 1, Run: texttree.Run{First: ch.ID, After: ch.After,
				Key: ch.Key, Text: string(ch.Rune), Author: ch.Author, Created: ch.Created,
				DeletedBy: ch.DeletedBy, DeletedAt: ch.DeletedAt, Restored: st.now,
				SourceDoc: ch.SourceDoc, SourceFirst: ch.SourceChar}})
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
// document is removed (removeSpan, undo of a layout, redo of a removal)
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
		if st.knownLocked(d, op.Anchor) {
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
// new and rehydrated instances as rows cut from the staged runs (final
// tombstone state, so each row is written exactly once even when a later
// op of the same batch deleted part of it), the rows holding pre-existing
// instances whose tombstone state flipped, split where the flip ends
// inside them, span rows and span flags, the archive runs a rehydration
// shrinks, undone flags, one log row per op, and, on the user's first
// edit, their name in the docs row.
func (d *Document) persistBatchLocked(tx *txn.Txn, st *batchState) error {
	d.eng.tChars.ResetEncoder(&st.rows.enc)
	d.eng.tOps.ResetEncoder(&st.opEnc)
	if err := d.insertRows(tx, &st.rows, st.runs); err != nil {
		return err
	}
	if len(st.flips) > 0 {
		if err := d.rewriteRuns(tx, &st.rows, st.flips, st.user, st.now); err != nil {
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
		for _, anchor := range sortedAnchors(st.rehydrate.RunUpdates) {
			if err := d.deleteArchiveRows(tx, anchor); err != nil {
				return err
			}
			run := st.rehydrate.RunUpdates[anchor]
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
				if _, visible := d.buf.PosOf(sop.anchor); visible {
					pos++
				}
			}
			// One splice for the whole run, as created: a later op of the
			// batch that deletes part of it replays after it.
			if _, err := d.buf.InsertRecord(&sop.run, sop.src); err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			kind := awareness.EvInsert
			if !sop.run.SourceDoc.IsNil() {
				kind = awareness.EvPaste
			}
			items = append(items, awareness.BatchItem{Kind: kind,
				Pos: pos, Text: sop.text, N: sop.ids.Len(), IDs: sop.ids, SrcDoc: sop.run.SourceDoc})
			results = append(results, EditResult{OpID: sop.opID, IDs: sop.ids.AppendTo(nil), Pos: pos})

		case EditDelete:
			resPos, hidden := sop.pos, 0
			err := d.buf.DeleteIDs(sop.flips, st.user, st.now, func(k int, s util.Stretch, pos int) {
				if k == 0 {
					resPos = pos
				}
				items = appendFlip(items, awareness.EvDelete, pos, s, k > 0)
				hidden += s.N
			})
			if err == nil && hidden != sop.flips.Len() {
				err = fmt.Errorf("%d of %d instances already hidden", sop.flips.Len()-hidden, sop.flips.Len())
			}
			if err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			results = append(results, EditResult{OpID: sop.opID, IDs: sop.flips.AppendTo(nil), Pos: resPos})

		case stepRestore:
			if err := d.buf.ApplyRehydrate(st.rehydrate); err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			first, resPos := len(items), 0
			var runes []rune // restored text, in flip order
			err := d.buf.UndeleteIDs(sop.flips, st.now, func(k int, s util.Stretch, pos int) {
				if k == 0 {
					resPos = pos
				}
				items = appendFlip(items, awareness.EvInsert, pos, s, k > 0)
				d.buf.WalkRunes(pos, s.N, func(r rune) bool {
					runes = append(runes, r)
					return true
				})
			})
			if err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			for i := first; i < len(items); i++ {
				items[i].Text, runes = string(runes[:items[i].N]), runes[items[i].N:]
			}
			results = append(results, EditResult{OpID: sop.opID, IDs: sop.flips.AppendTo(nil), Pos: resPos})

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

// appendFlip appends a stretch of instances that turned hidden (EvDelete)
// or visible (EvInsert) at visible position pos, the first of them there.
// With merge set it extends the last item instead when the two are
// contiguous: a delete at the position the deletes before it collapsed
// onto, or an insert right after the text the inserts before it restored;
// a run of such instances is one stretch of the item's IDs. An insert
// item's Text is the caller's to fill.
func appendFlip(items []awareness.BatchItem, kind awareness.EventKind, pos int, s util.Stretch, merge bool) []awareness.BatchItem {
	if n := len(items) - 1; merge && n >= 0 && items[n].Kind == kind {
		end := items[n].Pos
		if kind == awareness.EvInsert {
			end += items[n].N
		}
		if end == pos {
			items[n].N += s.N
			items[n].IDs.AppendRun(s.First, s.Step, s.N)
			return items
		}
	}
	return append(items, awareness.BatchItem{Kind: kind, Pos: pos, N: s.N, IDs: util.Progression(s.First, s.Step, s.N)})
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
