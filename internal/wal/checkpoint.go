package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tendax/internal/storage"
)

// This file implements fuzzy (non-quiescent) checkpoints with automatic
// log truncation. A checkpoint is a begin/end record pair written while
// transactions keep running:
//
//	CKPT-BEGIN                          (beginLSN)
//	  ... concurrent records keep appending ...
//	CKPT-END{DPT, ATT, redoLSN}         (endLSN)
//
// The dirty page table (DPT) and the active transaction table (ATT) are
// captured after the begin record is appended. The redo point is
// min(beginLSN, min recLSN over the DPT): every update below it is already
// in the on-disk page image, so recovery never needs to replay it. The
// truncation point additionally respects min(firstLSN over the ATT) so that
// a transaction active at checkpoint time keeps its complete undo chain in
// the log until it finishes. The log prefix below the truncation point is
// discarded once the end record is durable — crash before that and recovery
// simply falls back to the previous complete checkpoint.

// ActiveTxn is one active-transaction-table entry carried by a checkpoint:
// a transaction in flight at capture time and the LSN of its first record
// (the tail of its undo chain, which truncation must preserve).
type ActiveTxn struct {
	ID       uint64
	FirstLSN LSN
}

// CheckpointBody is the payload of an end-checkpoint record.
type CheckpointBody struct {
	BeginLSN LSN // LSN of the matching begin-checkpoint record
	RedoLSN  LSN // min(BeginLSN, min recLSN over DPT): redo starts here
	DPT      []storage.DirtyPage
	ATT      []ActiveTxn
}

// Encode serialises the body for the end-checkpoint record's After field.
func (b *CheckpointBody) Encode() []byte {
	out := make([]byte, 0, 24+len(b.DPT)*16+len(b.ATT)*16)
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	put64(uint64(b.BeginLSN))
	put64(uint64(b.RedoLSN))
	put64(uint64(len(b.DPT)))
	for _, p := range b.DPT {
		put64(uint64(p.ID))
		put64(p.RecLSN)
	}
	put64(uint64(len(b.ATT)))
	for _, t := range b.ATT {
		put64(t.ID)
		put64(uint64(t.FirstLSN))
	}
	return out
}

// DecodeCheckpointBody parses a payload produced by Encode.
func DecodeCheckpointBody(data []byte) (*CheckpointBody, error) {
	get64 := func() (uint64, error) {
		if len(data) < 8 {
			return 0, fmt.Errorf("wal: short checkpoint body")
		}
		v := binary.BigEndian.Uint64(data)
		data = data[8:]
		return v, nil
	}
	b := &CheckpointBody{}
	v, err := get64()
	if err != nil {
		return nil, err
	}
	b.BeginLSN = LSN(v)
	if v, err = get64(); err != nil {
		return nil, err
	}
	b.RedoLSN = LSN(v)
	n, err := get64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data))/16 {
		return nil, fmt.Errorf("wal: checkpoint DPT length %d exceeds body", n)
	}
	for i := uint64(0); i < n; i++ {
		var p storage.DirtyPage
		if v, err = get64(); err != nil {
			return nil, err
		}
		p.ID = storage.PageID(v)
		if p.RecLSN, err = get64(); err != nil {
			return nil, err
		}
		b.DPT = append(b.DPT, p)
	}
	if n, err = get64(); err != nil {
		return nil, err
	}
	if n > uint64(len(data))/16 {
		return nil, fmt.Errorf("wal: checkpoint ATT length %d exceeds body", n)
	}
	for i := uint64(0); i < n; i++ {
		var t ActiveTxn
		if t.ID, err = get64(); err != nil {
			return nil, err
		}
		if v, err = get64(); err != nil {
			return nil, err
		}
		t.FirstLSN = LSN(v)
		b.ATT = append(b.ATT, t)
	}
	return b, nil
}

// CheckpointResult summarises one fuzzy checkpoint.
type CheckpointResult struct {
	BeginLSN LSN
	EndLSN   LSN
	RedoLSN  LSN   // recovery replays updates from here
	TruncLSN LSN   // log records below this were discarded
	Removed  int64 // bytes reclaimed from the log head
	LogBytes int64 // log size after truncation
}

// FuzzyCheckpoint writes a begin/end checkpoint record pair around a fuzzy
// capture of the dirty page table and the active transaction table, makes
// the pair durable, and truncates the now-redundant log prefix. Writers are
// never paused: both captures run while transactions keep appending, which
// is safe because the tables are captured after the begin record — anything
// they miss carries an LSN above it and survives truncation.
//
// captureDPT must guarantee, before returning, that every page write-back
// it does NOT report is durable (for a file-backed pool: sync the disk
// after snapshotting the table) — truncation treats any update below the
// reported recLSNs as safely on disk. The capture callbacks must not append
// to the log. Checkpoints must not overlap; the database layer serialises
// them.
func (l *Log) FuzzyCheckpoint(captureDPT func() ([]storage.DirtyPage, error), captureATT func() []ActiveTxn) (*CheckpointResult, error) {
	beginLSN, err := l.Append(&Record{Type: RecCkptBegin})
	if err != nil {
		return nil, err
	}
	dpt, err := captureDPT()
	if err != nil {
		return nil, err
	}
	att := captureATT()
	redo := beginLSN
	for _, p := range dpt {
		if LSN(p.RecLSN) < redo {
			redo = LSN(p.RecLSN)
		}
	}
	trunc := redo
	for _, t := range att {
		if t.FirstLSN != 0 && t.FirstLSN < trunc {
			trunc = t.FirstLSN
		}
	}
	body := &CheckpointBody{BeginLSN: beginLSN, RedoLSN: redo, DPT: dpt, ATT: att}
	endLSN, err := l.Append(&Record{Type: RecCkptEnd, After: body.Encode()})
	if err != nil {
		return nil, err
	}
	// The pair must be durable before any record it makes redundant is
	// discarded; a crash before this point falls back to the previous
	// checkpoint, which the truncation below can never have outrun.
	if err := l.WaitFlushed(endLSN); err != nil {
		return nil, err
	}
	removed, err := l.TruncateBelow(trunc)
	if err != nil {
		return nil, err
	}
	size, err := l.store.Size()
	if err != nil {
		return nil, err
	}
	return &CheckpointResult{
		BeginLSN: beginLSN,
		EndLSN:   endLSN,
		RedoLSN:  redo,
		TruncLSN: trunc,
		Removed:  removed,
		LogBytes: size,
	}, nil
}

// TruncateBelow discards every durable frame whose records all have an
// LSN below lsn, returning the number of bytes reclaimed. The caller
// guarantees those records are redundant (their effects are durable in the
// page store and no undo chain reaches them). A frame that straddles lsn is
// kept whole: its records below lsn lie below the redo point too, so
// recovery reads them and skips them. Records appended concurrently are
// preserved — only a prefix of the already-durable stream is cut.
func (l *Log) TruncateBelow(lsn LSN) (int64, error) {
	data, err := l.store.ReadAll()
	if err != nil {
		return 0, err
	}
	var off int
	err = Walk(data, func(r *Record, end, frameEnd int) bool {
		if r.LSN >= lsn {
			return false
		}
		if end == frameEnd {
			off = end
		}
		return true
	})
	// A torn tail stops the cut at the last sound boundary; anything else
	// wrong with the log is not for truncation to paper over.
	if err != nil && !errors.Is(err, ErrTorn) {
		return 0, err
	}
	if off == 0 {
		return 0, nil
	}
	if err := l.store.TruncateHead(int64(off)); err != nil {
		return 0, err
	}
	return int64(off), nil
}

// SizeBytes returns the current on-disk size of the log in bytes.
func (l *Log) SizeBytes() (int64, error) { return l.store.Size() }
