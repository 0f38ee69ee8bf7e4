package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tendax/internal/storage"
)

// LSN is a log sequence number: a strictly increasing record ordinal.
// LSN 0 means "no record".
type LSN uint64

// RecordType discriminates log records.
type RecordType uint8

// Log record types. Type 0 is never written: every log an earlier record
// format wrote starts its first payload with a zero byte, and decoding
// refuses it (ErrFormat).
const (
	RecBegin RecordType = iota + 1 // no longer written: a transaction's first record opens it
	RecCommit
	RecAbort // abort completed (all undone)
	RecUpdate
	RecCLR        // compensation record written while undoing
	RecCheckpoint // quiescent checkpoint: no longer written; older logs may hold one
	RecCkptBegin  // fuzzy checkpoint started
	RecCkptEnd    // fuzzy checkpoint complete; After carries CheckpointBody
)

func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecUpdate:
		return "UPDATE"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecCkptBegin:
		return "CKPT-BEGIN"
	case RecCkptEnd:
		return "CKPT-END"
	default:
		return fmt.Sprintf("REC(%d)", uint8(t))
	}
}

// PageOp is the kind of slotted-page mutation carried by an update record.
type PageOp uint8

// Page operation kinds.
const (
	OpInsert PageOp = iota + 1
	OpUpdate
	OpDelete
)

// Record is one write-ahead log entry.
type Record struct {
	LSN     LSN
	Type    RecordType
	TxnID   uint64
	PrevLSN LSN // previous record of the same transaction (undo chain)

	// Update / CLR payload. An OpInsert carries the new record in After, an
	// OpDelete the removed one in Before. An OpUpdate is a splice: the bytes
	// [Off, Off+len(Before)) of the slot's record are replaced by After
	// (see Splice), so redo needs the page to hold exactly the pre-image.
	Page   uint64
	Slot   uint32
	Op     PageOp
	Owner  uint64 // heap (table) owning the page; redo re-stamps it
	Off    uint32 // OpUpdate only: where the splice starts
	Before []byte
	After  []byte

	// CLR only: next record to undo for this transaction.
	UndoNext LSN
}

// ErrTorn reports a truncated or corrupted log tail; recovery treats
// everything from that point on as never written.
var ErrTorn = errors.New("wal: torn log tail")

// ErrFormat reports an intact (checksummed) frame whose payload is not a
// record of this format — a log written by an older release, never the
// residue of a crash. Open, Iterate and Recover return it rather than
// mistake the log for empty.
var ErrFormat = errors.New("wal: log record format not recognised")

// A frame is the unit of the log: a 4-byte big-endian payload length, the
// payload's CRC32C, then the payload.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// The payload of a frame is one record:
//
//	type      1 byte, 1..8
//	LSN       uvarint
//	TxnID     uvarint
//	PrevLSN   uvarint LSN-PrevLSN (0 = none); not in commit and abort records
//	update and CLR records only:
//	  Op, Page, Slot, Owner   uvarints
//	  Off                     uvarint, OpUpdate only
//	  Before, After           uvarint length + bytes each
//	  UndoNext                CLR only: uvarint LSN-UndoNext (0 = none)
//	end-checkpoint records only:
//	  After                   uvarint length + bytes
//
// Begin, commit, abort and the other checkpoint records carry the header
// alone. Nothing reads a commit's or an abort's PrevLSN (undo follows a
// transaction's update and CLR records), so they leave it out: a commit is
// its type, LSN and transaction. Every value has exactly one encoding
// (minimal varints, deltas below the LSN, nothing trailing), so decoding
// and re-encoding a payload gives back the same bytes.

// appendFrame appends r, framed, to b.
func appendFrame(b []byte, r *Record) []byte {
	start := len(b)
	var hdr [frameHeader]byte
	b = appendRecord(append(b, hdr[:]...), r)
	payload := b[start+frameHeader:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// Size returns the bytes r occupies in the log, frame included.
func (r *Record) Size() int { return len(appendFrame(nil, r)) }

// appendRecord appends r's payload to b.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Type))
	b = binary.AppendUvarint(b, uint64(r.LSN))
	b = binary.AppendUvarint(b, r.TxnID)
	if r.Type != RecCommit && r.Type != RecAbort {
		b = appendBack(b, r.LSN, r.PrevLSN)
	}
	switch r.Type {
	case RecUpdate, RecCLR:
		b = binary.AppendUvarint(b, uint64(r.Op))
		b = binary.AppendUvarint(b, r.Page)
		b = binary.AppendUvarint(b, uint64(r.Slot))
		b = binary.AppendUvarint(b, r.Owner)
		if r.Op == OpUpdate {
			b = binary.AppendUvarint(b, uint64(r.Off))
		}
		b = appendBytes(b, r.Before)
		b = appendBytes(b, r.After)
		if r.Type == RecCLR {
			b = appendBack(b, r.LSN, r.UndoNext)
		}
	case RecCkptEnd:
		b = appendBytes(b, r.After)
	}
	return b
}

// appendBack encodes an earlier LSN as its distance back from lsn.
func appendBack(b []byte, lsn, to LSN) []byte {
	if to == 0 {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(lsn-to))
}

func appendBytes(b, v []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// frameAt returns the payload of the frame data starts with. A frame the
// data ends inside of, or whose checksum fails, is the tail a crash left:
// ErrTorn.
func frameAt(data []byte) ([]byte, error) {
	if len(data) < frameHeader {
		return nil, ErrTorn
	}
	n := binary.BigEndian.Uint32(data)
	if uint64(len(data)-frameHeader) < uint64(n) {
		return nil, ErrTorn
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:]) {
		return nil, ErrTorn
	}
	return payload, nil
}

// walk decodes the frames of data in order, calling fn with each record and
// the offset just past its frame until fn returns false. The record is
// reused for the next frame and its images alias data: fn copies what it
// keeps. walk returns ErrTorn at a torn frame and ErrFormat at an intact
// one that does not decode.
func walk(data []byte, fn func(r *Record, end int) bool) error {
	var r Record
	for off := 0; off < len(data); {
		payload, err := frameAt(data[off:])
		if err != nil {
			return err
		}
		if err := decode(payload, &r); err != nil {
			return fmt.Errorf("%w (frame at byte %d)", err, off)
		}
		off += frameHeader + len(payload)
		if !fn(&r, off) {
			return nil
		}
	}
	return nil
}

// decode parses one payload into r. Before and After alias p (capacity
// clipped), so decoding allocates nothing.
func decode(p []byte, r *Record) error {
	if len(p) == 0 || p[0] < byte(RecBegin) || p[0] > byte(RecCkptEnd) {
		return ErrFormat
	}
	*r = Record{Type: RecordType(p[0])}
	d := reader{b: p[1:]}
	r.LSN = LSN(d.uvarint())
	r.TxnID = d.uvarint()
	if r.Type != RecCommit && r.Type != RecAbort {
		r.PrevLSN = d.back(r.LSN)
	}
	switch r.Type {
	case RecUpdate, RecCLR:
		if op := d.uvarint(); op >= uint64(OpInsert) && op <= uint64(OpDelete) {
			r.Op = PageOp(op)
		} else {
			d.fail()
		}
		r.Page = d.uvarint()
		r.Slot = d.uvarint32()
		r.Owner = d.uvarint()
		if r.Op == OpUpdate {
			r.Off = d.uvarint32()
		}
		r.Before = d.bytes()
		r.After = d.bytes()
		if r.Type == RecCLR {
			r.UndoNext = d.back(r.LSN)
		}
	case RecCkptEnd:
		r.After = d.bytes()
	}
	if len(d.b) > 0 {
		d.fail()
	}
	return d.err
}

// reader consumes a payload; the first malformed value sticks as ErrFormat
// and zeroes everything after it.
type reader struct {
	b   []byte
	err error
}

func (d *reader) fail() {
	d.err = ErrFormat
	d.b = nil
}

// uvarint reads a minimally encoded uvarint.
func (d *reader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *reader) uvarint32() uint32 {
	v := d.uvarint()
	if v > 1<<32-1 {
		d.fail()
		return 0
	}
	return uint32(v)
}

// back reads an LSN written by appendBack relative to lsn.
func (d *reader) back(lsn LSN) LSN {
	delta := d.uvarint()
	if delta == 0 {
		return 0
	}
	if delta >= uint64(lsn) {
		d.fail()
		return 0
	}
	return lsn - LSN(delta)
}

func (d *reader) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Splice returns the smallest splice that turns old into cur: cur equals
// old[:off] + after + old[off+len(before):], with the common prefix and
// suffix trimmed away. before and after are subslices of old and cur.
func Splice(old, cur []byte) (off uint32, before, after []byte) {
	p := 0
	for p < len(old) && p < len(cur) && old[p] == cur[p] {
		p++
	}
	s := 0
	for s < len(old)-p && s < len(cur)-p && old[len(old)-1-s] == cur[len(cur)-1-s] {
		s++
	}
	return uint32(p), old[p : len(old)-s], cur[p : len(cur)-s]
}

// ErrPreImage reports an update whose splice does not match the record it
// is applied to: the page is not in the state the record was logged
// against.
var ErrPreImage = errors.New("wal: record does not hold the update's pre-image")

// applySplice returns rec with the bytes [off, off+len(before)) replaced by
// after, failing with ErrPreImage unless they equal before.
func applySplice(rec []byte, off uint32, before, after []byte) ([]byte, error) {
	end := uint64(off) + uint64(len(before))
	if end > uint64(len(rec)) || !bytes.Equal(rec[off:end], before) {
		return nil, ErrPreImage
	}
	out := make([]byte, 0, len(rec)-len(before)+len(after))
	out = append(out, rec[:off]...)
	out = append(out, after...)
	return append(out, rec[end:]...), nil
}

// Apply performs the page mutation of an update or CLR record on sp — the
// one place a record becomes slotted-page calls, for redo, for recovery's
// compensation and for runtime rollback alike. The caller holds the page
// latch and stamps the page LSN.
func Apply(sp *storage.SlottedPage, r *Record) error {
	slot := int(r.Slot)
	switch r.Op {
	case OpInsert:
		return sp.InsertAt(slot, r.After)
	case OpUpdate:
		cur, err := sp.Get(slot)
		if err != nil {
			return err
		}
		rec, err := applySplice(cur, r.Off, r.Before, r.After)
		if err != nil {
			return err
		}
		return sp.Update(slot, rec)
	case OpDelete:
		return sp.Delete(slot)
	}
	return fmt.Errorf("wal: %v record carries no page operation", r.Type)
}
