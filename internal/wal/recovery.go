package wal

import (
	"fmt"
	"sort"

	"tendax/internal/storage"
)

// RecoveryStats summarises what crash recovery did.
type RecoveryStats struct {
	Analyzed  int // log records scanned
	Redone    int // updates re-applied
	Undone    int // loser updates rolled back
	Winners   int // committed transactions
	Losers    int // transactions rolled back
	MaxTxnID  uint64
	MaxPageID uint64

	// Fuzzy-checkpoint outcome of the analysis phase.
	CheckpointLSN LSN // end record of the last complete checkpoint (0: none)
	RedoLSN       LSN // redo started here (0: from the head of the log)
	SkippedRedo   int // updates below the redo point not replayed
}

// Recover brings the heap pages behind pool to a state containing exactly
// the effects of committed transactions, following the ARIES phases:
//
//  1. Analysis: find winners (committed) and losers (active at crash).
//  2. Redo: re-apply every logged update whose LSN is newer than the page
//     LSN, restoring the exact pre-crash page states (repeating history).
//  3. Undo: roll back losers in reverse LSN order, writing compensation
//     records so a crash during recovery is itself recoverable.
//
// With fuzzy checkpointing the log's physical head IS the last truncation
// point, so analysis over the retained log is already bounded by checkpoint
// frequency rather than database age. The last complete begin/end
// checkpoint pair additionally supplies the redo point: records below it
// (retained only so that a transaction active at checkpoint time keeps its
// undo chain) have their effects in the on-disk pages and are not replayed.
// A torn pair — an end record missing or damaged because the crash hit
// mid-checkpoint — is treated as absent, falling back to the previous
// complete pair (or to the head of the log).
//
// Recover appends the abort records for losers to log and flushes it.
func Recover(log *Log, pool *storage.BufferPool) (*RecoveryStats, error) {
	stats := &RecoveryStats{}

	var records []*Record
	committed := map[uint64]bool{}
	aborted := map[uint64]bool{}
	lastLSN := map[uint64]LSN{}
	undoNext := map[uint64]LSN{} // resume point if CLRs were already written
	byLSN := map[LSN]*Record{}
	var ckpt *CheckpointBody

	err := log.Iterate(func(r *Record) error {
		stats.Analyzed++
		records = append(records, r)
		byLSN[r.LSN] = r
		if r.TxnID > stats.MaxTxnID {
			stats.MaxTxnID = r.TxnID
		}
		switch r.Type {
		case RecCommit:
			committed[r.TxnID] = true
		case RecAbort:
			aborted[r.TxnID] = true
		case RecUpdate:
			lastLSN[r.TxnID] = r.LSN
			if r.Page > stats.MaxPageID {
				stats.MaxPageID = r.Page
			}
		case RecCLR:
			undoNext[r.TxnID] = r.UndoNext
			if r.Page > stats.MaxPageID {
				stats.MaxPageID = r.Page
			}
		case RecCkptEnd:
			// A decodable end record proves the whole pair: its begin
			// record precedes it, and truncation never outruns a begin
			// record, so the pair is complete iff the end is intact.
			if body, err := DecodeCheckpointBody(r.After); err == nil {
				ckpt = body
				stats.CheckpointLSN = r.LSN
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Redo phase: repeat history for every update and CLR at or above the
	// redo point. Updates below it are guaranteed to be in the on-disk
	// pages by the checkpoint protocol (redoLSN never exceeds any dirty
	// page's recLSN); they remain in the log only to serve undo chains.
	redoFrom := LSN(0)
	if ckpt != nil {
		redoFrom = ckpt.RedoLSN
		stats.RedoLSN = redoFrom
	}
	for _, r := range records {
		if r.Type != RecUpdate && r.Type != RecCLR {
			continue
		}
		if r.LSN < redoFrom {
			stats.SkippedRedo++
			continue
		}
		applied, err := redoOne(pool, r)
		if err != nil {
			return nil, err
		}
		if applied {
			stats.Redone++
		}
	}

	// Undo phase: losers are transactions with updates but neither commit
	// nor completed abort.
	var losers []uint64
	for txn := range lastLSN {
		if !committed[txn] && !aborted[txn] {
			losers = append(losers, txn)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	stats.Losers = len(losers)
	stats.Winners = len(committed)

	for _, txn := range losers {
		cur := lastLSN[txn]
		if resume, ok := undoNext[txn]; ok {
			cur = resume // part of the rollback already happened pre-crash
		}
		for cur != 0 {
			r := byLSN[cur]
			if r == nil {
				return nil, fmt.Errorf("wal: undo chain of txn %d broken at LSN %d", txn, cur)
			}
			if r.Type == RecUpdate {
				clr := &Record{
					Type:     RecCLR,
					TxnID:    txn,
					Page:     r.Page,
					Slot:     r.Slot,
					Owner:    r.Owner,
					UndoNext: r.PrevLSN,
				}
				switch r.Op {
				case OpInsert:
					clr.Op = OpDelete
					clr.Before = r.After
				case OpUpdate:
					// The reverse splice: same place, images swapped.
					clr.Op = OpUpdate
					clr.Off = r.Off
					clr.Before = r.After
					clr.After = r.Before
				case OpDelete:
					clr.Op = OpInsert
					clr.After = r.Before
				}
				if _, err := log.Append(clr); err != nil {
					return nil, err
				}
				if _, err := redoOne(pool, clr); err != nil {
					return nil, err
				}
				stats.Undone++
			}
			cur = prevForUndo(r)
		}
		if _, err := log.Append(&Record{Type: RecAbort, TxnID: txn}); err != nil {
			return nil, err
		}
	}
	if err := log.Flush(); err != nil {
		return nil, err
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	return stats, nil
}

func prevForUndo(r *Record) LSN {
	if r.Type == RecCLR {
		return r.UndoNext
	}
	return r.PrevLSN
}

// redoOne applies the page mutation of r if the page has not seen it yet
// (page LSN < record LSN). It returns whether the mutation was applied. An
// update is a splice, so repeating it needs the page to hold exactly the
// state the record was logged against; a page that does not is an error
// (ErrPreImage), never silently overwritten.
func redoOne(pool *storage.BufferPool, r *Record) (bool, error) {
	// Ensure the page exists: updates may reference pages allocated after
	// the last flush.
	for pool.Disk().NumPages() <= r.Page {
		if _, err := pool.Disk().AllocatePage(); err != nil {
			return false, err
		}
	}
	pg, err := pool.Fetch(storage.PageID(r.Page))
	if err != nil {
		return false, err
	}
	defer pool.Unpin(storage.PageID(r.Page), true)
	pg.Lock()
	defer pg.Unlock()
	if LSN(pg.LSN()) >= r.LSN {
		return false, nil
	}
	if err := Apply(storage.Slotted(pg), r); err != nil {
		return false, fmt.Errorf("wal: redo %v LSN %d (op %d) page %d slot %d: %w", r.Type, r.LSN, r.Op, r.Page, r.Slot, err)
	}
	if r.Owner != 0 {
		pg.SetOwner(r.Owner)
	}
	pg.SetLSN(uint64(r.LSN))
	pg.MarkDirty()
	return true, nil
}
