package core

import (
	"fmt"
	"sync"
	"time"

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
// the end of the file are one-op batches.

// Edit-op kinds accepted by Apply.
const (
	EditInsert = "insert"
	EditDelete = "delete"
	EditLayout = "layout"
	EditNote   = "note"
)

// EditOp is one operation of a batch. Anchoring:
//
//   - insert: UseAnchor chains the text after instance Anchor (NilID =
//     front of document — a tombstone anchor is valid and resolves to
//     where its text would resume); AnchorPrev chains after the last
//     instance created by an earlier insert of the same batch (the
//     pipelined-typing case; the caller seeds cross-batch continuation by
//     rewriting the first AnchorPrev op to an explicit anchor); otherwise
//     Pos is the v1 fallback, resolved against the batch-start state, with
//     Pos < 0 meaning the end of the document (resolved under the document
//     lock, so concurrent appenders never split each other's runs). A
//     non-nil SrcDoc makes the insert a paste.
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

	// Staging state is pooled and arena-backed: a steady stream of batches
	// recycles the same stagedOp slices, per-batch maps and character-record
	// blocks instead of re-allocating them per commit. Nothing reachable
	// from st survives this call (the buffer, the op log and the results
	// all take their own copies), so releasing on every return is safe.
	st := batchPool.Get().(*batchState)
	defer func() {
		st.reset()
		batchPool.Put(st)
	}()
	st.user = user
	st.now = d.eng.clock.Now()
	st.head = d.buf.Head()
	if err := d.stageBatchLocked(st, ops); err != nil {
		return nil, 0, err
	}

	lsn, err := d.eng.withTxnAsync(func(tx *txn.Txn) error {
		return d.persistBatchLocked(tx, st)
	})
	if err != nil {
		return nil, 0, err
	}

	// Transaction committed: fold the batch into the buffer op by op,
	// resolving the positional form of every item as the state evolves,
	// then publish the whole batch as one awareness event.
	results, items, err := d.applyStagedLocked(st)
	if err != nil {
		return nil, 0, err
	}
	d.publishBatchLocked(user, st, items, st.now)
	return results, lsn, nil
}

// batchState is a staged edit batch: every row mutation computed and
// validated against the document state plus the batch's own earlier ops,
// before anything is persisted or applied. Instances are pooled (see
// batchPool): all slices, maps and the character arena are recycled
// across batches, so the steady-state commit path allocates per batch
// only what outlives it (result IDs, op-log records).
type batchState struct {
	user string
	now  time.Time
	ops  []stagedOp

	created    []*texttree.Char // new instances, creation order (final records)
	createdSet map[util.ID]*texttree.Char
	updated    map[util.ID]*texttree.Char // existing instances with rewritten links / tombstone state
	spans      []db.Row                   // span rows to insert
	opRecs     []*opRecord                // one log row per op
	sizeDelta  int                        // visible-length change of the whole batch
	head       util.ID                    // staged chain head

	arena charArena // backing store for per-batch character records
}

// charArena hands out blocks of texttree.Char with pool lifetime. Records
// allocated here are only reachable from the owning batchState: the buffer
// copies runs on InsertRun, persistence boxes fields into db.Row values,
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
	clear(st.createdSet)
	clear(st.updated)
	for i := range st.spans {
		st.spans[i] = nil
	}
	st.spans = st.spans[:0]
	for i := range st.opRecs {
		st.opRecs[i] = nil
	}
	st.opRecs = st.opRecs[:0]
	st.sizeDelta = 0
	st.head = util.NilID
	st.arena.reset()
}

// stagedOp carries what the apply phase needs to replay one op against
// the buffer after commit.
type stagedOp struct {
	kind    string
	opID    util.ID
	spanID  util.ID
	prev    util.ID         // insert: resolved predecessor
	srcDoc  util.ID         // insert: paste source document
	chars   []texttree.Char // insert: records as created (visible), value copies
	deleted []util.ID       // delete: instances whose visibility flips
	ids     []util.ID       // layout: spanned instances; note: anchor
	text    string          // insert/note text; layout: "kind=value"
	pos     int             // pos-fallback ops: requested position (apply recomputes committed pos)
	n       int
}

// charLocked resolves an instance against the staged state first, then
// the hot buffer; d.mu is held by the batch pipeline.
func (st *batchState) charLocked(d *Document, id util.ID) (*texttree.Char, bool) {
	if ch, ok := st.createdSet[id]; ok {
		return ch, true
	}
	if ch, ok := st.updated[id]; ok {
		return ch, true
	}
	return d.buf.Char(id)
}

// succLocked returns the staged chain successor of prev (NilID = staged
// head); d.mu is held by the batch pipeline.
func (st *batchState) succLocked(d *Document, prev util.ID) util.ID {
	if prev.IsNil() {
		return st.head
	}
	if ch, ok := st.charLocked(d, prev); ok {
		return ch.Next
	}
	return util.NilID
}

// setLinkLocked replaces the staged record of an instance, copying a hot
// record on first touch so published snapshots keep their frozen state;
// d.mu is held by the batch pipeline.
func (st *batchState) setLinkLocked(d *Document, id util.ID, mut func(*texttree.Char)) error {
	if ch, ok := st.createdSet[id]; ok {
		mut(ch)
		return nil
	}
	if ch, ok := st.updated[id]; ok {
		mut(ch)
		return nil
	}
	ch, ok := d.buf.Char(id)
	if !ok {
		return fmt.Errorf("%w: %v", texttree.ErrUnknownChar, id)
	}
	cp := *ch
	mut(&cp)
	st.updated[id] = &cp
	return nil
}

// stageBatchLocked resolves every op of the batch in order against the evolving
// staged state, filling the (pooled, pre-reset) st. It never touches the
// buffer or the database: on error the document is exactly as before.
func (d *Document) stageBatchLocked(st *batchState, ops []EditOp) error {
	user, now := st.user, st.now
	lastInsert := util.NilID    // last instance created by an earlier insert op
	var lastInsertIDs []util.ID // all instances of that insert

	for i, op := range ops {
		switch op.Kind {
		case EditInsert:
			prev, err := d.resolveInsertAnchorLocked(st, op, lastInsert)
			if err != nil {
				return fmt.Errorf("core: batch op %d: %w", i, err)
			}
			runes := []rune(op.Text)
			if len(runes) == 0 {
				return fmt.Errorf("core: batch op %d: empty insert", i)
			}
			succ := st.succLocked(d, prev)
			ids := make([]util.ID, len(runes))
			for j := range runes {
				ids[j] = d.eng.ids.Next()
			}
			// Two arena blocks per insert: the records as created (replayed
			// into the buffer — a later delete op of the same batch must not
			// leak into them) and the final records (mutable via setLink,
			// persisted with their end-of-batch state).
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), prev: prev,
				srcDoc: op.SrcDoc, text: op.Text, chars: st.arena.alloc(len(runes))}
			recs := st.arena.alloc(len(runes))
			for j, r := range runes {
				ch := texttree.Char{ID: ids[j], Rune: r, Author: user, Created: now,
					SourceDoc: op.SrcDoc}
				if j < len(op.SrcChars) {
					ch.SourceChar = op.SrcChars[j]
				}
				if j == 0 {
					ch.Prev = prev
				} else {
					ch.Prev = ids[j-1]
				}
				if j == len(runes)-1 {
					ch.Next = succ
				} else {
					ch.Next = ids[j+1]
				}
				sop.chars[j] = ch // value copy: the record as created
				recs[j] = ch
				st.created = append(st.created, &recs[j])
				st.createdSet[ch.ID] = &recs[j]
			}
			if prev.IsNil() {
				st.head = ids[0]
			} else if err := st.setLinkLocked(d, prev, func(c *texttree.Char) { c.Next = ids[0] }); err != nil {
				return fmt.Errorf("core: batch op %d: %w", i, err)
			}
			if !succ.IsNil() {
				if err := st.setLinkLocked(d, succ, func(c *texttree.Char) { c.Prev = ids[len(ids)-1] }); err != nil {
					return fmt.Errorf("core: batch op %d: %w", i, err)
				}
			}
			st.sizeDelta += len(runes)
			lastInsert = ids[len(ids)-1]
			lastInsertIDs = ids
			logKind := "insert"
			if !op.SrcDoc.IsNil() {
				logKind = "paste"
			}
			st.opRecs = append(st.opRecs, &opRecord{ID: sop.opID, User: user,
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
			var affected []util.ID
			for _, id := range targets {
				ch, ok := st.charLocked(d, id)
				if !ok {
					// Compaction may have archived the tombstone since the
					// client saw it — archived instances are deleted by
					// construction, so the delete already holds.
					arch, err := d.ensureArchiveLocked()
					if err != nil {
						return fmt.Errorf("core: batch op %d: %w", i, err)
					}
					if arch.Contains(id) {
						continue
					}
					return fmt.Errorf("core: batch op %d: %w: %v", i, texttree.ErrUnknownChar, id)
				}
				if ch.Deleted {
					continue // deletion by identity commutes
				}
				if err := st.setLinkLocked(d, id, func(c *texttree.Char) {
					c.Deleted = true
					c.DeletedBy = user
					c.DeletedAt = now
					c.Restored = time.Time{}
				}); err != nil {
					return fmt.Errorf("core: batch op %d: %w", i, err)
				}
				affected = append(affected, id)
			}
			sop := stagedOp{kind: op.Kind, opID: d.eng.ids.Next(), deleted: affected,
				pos: op.Pos, n: len(affected)}
			st.sizeDelta -= len(affected)
			st.opRecs = append(st.opRecs, &opRecord{ID: sop.opID, User: user,
				Kind: "delete", CharIDs: affected, Created: now})
			st.ops = append(st.ops, sop)

		case EditLayout:
			ids := op.Chars
			if len(ids) == 0 && op.AnchorPrev {
				if len(lastInsertIDs) == 0 {
					return fmt.Errorf("core: batch op %d: prev anchor without a prior insert", i)
				}
				ids = lastInsertIDs
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
				ids: ids, n: len(ids), text: op.Span + "=" + op.Value}
			st.spans = append(st.spans, db.Row{
				int64(spanID), int64(d.id), op.Span, op.Value,
				int64(ids[0]), int64(ids[len(ids)-1]), user, now, false,
			})
			st.opRecs = append(st.opRecs, &opRecord{ID: sop.opID, User: user,
				Kind: "layout", Ref: spanID, Created: now})
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
				if lastInsert.IsNil() {
					return fmt.Errorf("core: batch op %d: prev anchor without a prior insert", i)
				}
				anchor = lastInsert
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
				ids: []util.ID{anchor}, text: op.Text}
			st.spans = append(st.spans, db.Row{
				int64(spanID), int64(d.id), SpanNote, op.Text,
				int64(anchor), int64(anchor), user, now, false,
			})
			st.opRecs = append(st.opRecs, &opRecord{ID: sop.opID, User: user,
				Kind: "layout", Ref: spanID, Created: now})
			st.ops = append(st.ops, sop)

		default:
			return fmt.Errorf("core: batch op %d: unknown kind %q", i, op.Kind)
		}
	}
	return nil
}

// resolveInsertAnchorLocked turns an insert op's anchor into the chain
// predecessor the new text follows.
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
		arch, err := d.ensureArchiveLocked()
		if err != nil {
			return util.NilID, err
		}
		if hot, ok := arch.AnchorOf(op.Anchor); ok {
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

// persistBatchLocked writes the staged batch inside one transaction: every new
// character row in one batch insert (final link state, so each row is
// written exactly once even when a later op of the same batch rewired
// it), link/tombstone rewrites of pre-existing rows, span rows, one log
// row per op, and the document-row refresh.
func (d *Document) persistBatchLocked(tx *txn.Txn, st *batchState) error {
	if len(st.created) > 0 {
		rows := make([]db.Row, len(st.created))
		for i, ch := range st.created {
			rows[i] = d.rowFromChar(ch)
		}
		if _, err := d.eng.tChars.InsertBatch(tx, rows); err != nil {
			return err
		}
	}
	for id, ch := range st.updated {
		if err := d.eng.tChars.UpdateByPK(tx, int64(id), d.rowFromChar(ch)); err != nil {
			return err
		}
	}
	for _, row := range st.spans {
		if _, err := d.eng.tSpans.Insert(tx, row); err != nil {
			return err
		}
	}
	for _, rec := range st.opRecs {
		if err := d.writeOpRow(tx, rec); err != nil {
			return err
		}
	}
	return d.updateDocRowLocked(tx, st.user, st.now, d.buf.Len()+st.sizeDelta)
}

// applyStagedLocked folds the committed batch into the buffer op by op and
// returns the per-op results plus the positional batch items for the
// awareness push. Caller holds d.mu; the transaction has committed.
func (d *Document) applyStagedLocked(st *batchState) ([]EditResult, []awareness.BatchItem, error) {
	results := make([]EditResult, 0, len(st.ops))
	var items []awareness.BatchItem
	for _, sop := range st.ops {
		switch sop.kind {
		case EditInsert:
			pos := 0
			if !sop.prev.IsNil() {
				r, ok := d.buf.RankOf(sop.prev)
				if !ok {
					return nil, nil, fmt.Errorf("core: buffer diverged: lost anchor %v", sop.prev)
				}
				pos = r
				if anchor, _ := d.buf.Char(sop.prev); !anchor.Deleted {
					pos++
				}
			}
			// One batched splice for the whole run: the buffer recomputes the
			// chain links itself and copies the records, so the arena-backed
			// staging slice is reusable the moment this returns.
			if _, err := d.buf.InsertRun(sop.prev, sop.chars); err != nil {
				return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
			}
			ids := make([]util.ID, len(sop.chars))
			for j := range sop.chars {
				ids[j] = sop.chars[j].ID
			}
			kind := awareness.EvInsert
			if !sop.srcDoc.IsNil() {
				kind = awareness.EvPaste
			}
			items = append(items, awareness.BatchItem{Kind: kind,
				Pos: pos, Text: sop.text, N: len(ids), IDs: ids, SrcDoc: sop.srcDoc})
			results = append(results, EditResult{OpID: sop.opID, IDs: ids, Pos: pos})

		case EditDelete:
			resPos := sop.pos
			for k, id := range sop.deleted {
				pos, vis := d.buf.PosOf(id)
				if !vis {
					return nil, nil, fmt.Errorf("core: buffer diverged: %v already hidden", id)
				}
				if k == 0 {
					resPos = pos
				}
				if err := d.buf.Delete(id, st.user, st.now); err != nil {
					return nil, nil, fmt.Errorf("core: buffer diverged: %w", err)
				}
				items = appendFlip(items, awareness.EvDelete, pos, id, k > 0)
			}
			results = append(results, EditResult{OpID: sop.opID, IDs: sop.deleted, Pos: resPos})

		case EditLayout:
			pos := 0
			if p, ok := d.buf.RankOf(sop.ids[0]); ok {
				pos = p
			}
			items = append(items, awareness.BatchItem{Kind: awareness.EvLayout,
				Pos: pos, N: sop.n})
			results = append(results, EditResult{OpID: sop.opID, Span: sop.spanID, Pos: pos})

		case EditNote:
			pos := 0
			if p, ok := d.buf.RankOf(sop.ids[0]); ok {
				pos = p
			}
			items = append(items, awareness.BatchItem{Kind: awareness.EvNote,
				Pos: pos, Text: sop.text})
			results = append(results, EditResult{OpID: sop.opID, Span: sop.spanID,
				IDs: sop.ids, Pos: pos})
		}
		rec := *st.opRecs[len(results)-1]
		d.ops = append(d.ops, rec)
	}
	return results, items, nil
}

// appendFlip appends one instance that turned hidden (EvDelete) or visible
// (EvInsert) at visible position pos. With merge set it extends the last
// item instead when the two are contiguous: a delete at the position the
// deletes before it collapsed onto, or an insert right after the text the
// inserts before it restored. An insert item's Text is the caller's to fill.
func appendFlip(items []awareness.BatchItem, kind awareness.EventKind, pos int, id util.ID, merge bool) []awareness.BatchItem {
	if n := len(items) - 1; merge && n >= 0 && items[n].Kind == kind {
		end := items[n].Pos
		if kind == awareness.EvInsert {
			end += items[n].N
		}
		if end == pos {
			items[n].N++
			items[n].IDs = append(items[n].IDs, id)
			return items
		}
	}
	return append(items, awareness.BatchItem{Kind: kind, Pos: pos, N: 1, IDs: []util.ID{id}})
}

// publishBatchLocked announces the committed batch as ONE awareness event:
// a single-item batch keeps the legacy event kind and shape (v1 subscribers
// replay it natively; a lone layout names its span as "kind=value"), a
// multi-item batch publishes EvBatch with the items in order. Either way
// the batch consumes one sequence number.
func (d *Document) publishBatchLocked(user string, st *batchState, items []awareness.BatchItem, now time.Time) {
	opID := util.NilID
	if len(st.opRecs) > 0 {
		opID = st.opRecs[0].ID
	}
	ev := awareness.Event{Doc: d.id, User: user, OpID: opID, At: now}
	if len(items) == 1 {
		it := items[0]
		ev.Kind = it.Kind
		ev.Pos = it.Pos
		ev.Text = it.Text
		ev.N = it.N
		ev.IDs = it.IDs
		ev.SrcDoc = it.SrcDoc
		if it.Kind == awareness.EvLayout {
			for i := range st.ops {
				if st.ops[i].kind == EditLayout {
					ev.Name = st.ops[i].text
					break
				}
			}
		}
	} else {
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
