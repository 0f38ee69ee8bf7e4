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

// Log record types. Type 0 is never written.
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
// frame of this format — a log written by an older release, never the
// residue of a crash. Open, Iterate and Recover return it rather than
// mistake the log for empty.
var ErrFormat = errors.New("wal: log record format not recognised")

// A frame is the unit of the log and of a flush: a 4-byte big-endian
// payload length, the payload's CRC32C, then the payload. The flusher
// writes each batch as one frame (several past maxFrame), so a crash's
// torn tail lies in the batch being written, none of whose records a
// commit waiter was told are durable. The payload is
//
//	tag        1 byte, frameTag
//	first LSN  uvarint, not 0
//	records    one or more, back to back; the i-th (from 0) has LSN first+i
//
// and each record is
//
//	type      1 byte, 1..8
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
// its type and transaction. Every value has exactly one encoding (minimal
// varints, deltas below the LSN, nothing trailing), so decoding and
// re-encoding a payload gives back the same bytes.
const frameHeader = 8

// frameTag opens every frame payload. Every log an earlier format wrote
// opens its first payload with a byte from 0 to 8 (the high byte of a
// fixed-width LSN, or a record type), so decoding refuses it (ErrFormat).
const frameTag = 0xF4

// maxFrame caps a frame: Append opens a new one once the open frame holds
// this many bytes, so a batch larger than that (a bulk load's, up to
// pendingKick) goes out as several frames.
const maxFrame = 64 << 10

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// openFrame appends the header of a frame whose first record has LSN
// first; sealFrames fills in its length and checksum.
func openFrame(b []byte, first LSN) []byte {
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, frameTag)
	return binary.AppendUvarint(b, uint64(first))
}

// sealFrames fills in the checksum of every frame of b and the length of
// the last one, which starts at last; the length of each earlier frame
// was filled in when the frame after it was opened.
func sealFrames(b []byte, last int) {
	binary.BigEndian.PutUint32(b[last:], uint32(len(b)-last-frameHeader))
	for off := 0; off < len(b); {
		end := off + frameHeader + int(binary.BigEndian.Uint32(b[off:]))
		binary.BigEndian.PutUint32(b[off+4:], crc32.Checksum(b[off+frameHeader:end], crcTable))
		off = end
	}
}

// appendRecord appends r's encoding to b. r.LSN is not written: the
// record's place in its frame implies it.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Type))
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

// Walk decodes the frames of data in order, calling fn with each record,
// the offset just past the record's bytes and the offset just past its
// frame, until fn returns false. The two offsets are equal for the last
// record of a frame: only there, at a frame boundary, can a cut of the log
// keep every record before it. The record is reused for the next one and
// its images alias data: fn copies what it keeps. Walk returns ErrTorn at
// a torn frame and ErrFormat at an intact one that does not decode.
func Walk(data []byte, fn func(r *Record, end, frameEnd int) bool) error {
	var r Record
	for off := 0; off < len(data); {
		payload, err := frameAt(data[off:])
		if err != nil {
			return err
		}
		start, frameEnd := off+frameHeader, off+frameHeader+len(payload)
		stop := false
		err = decodeFrame(payload, &r, func(end int) bool {
			stop = !fn(&r, start+end, frameEnd)
			return !stop
		})
		if err != nil {
			return fmt.Errorf("%w (frame at byte %d)", err, off)
		}
		if stop {
			return nil
		}
		off = frameEnd
	}
	return nil
}

// decodeFrame parses a frame payload into r one record at a time, calling
// fn with the offset in p just past each until fn returns false. The
// images alias p (capacity clipped), so decoding allocates nothing.
func decodeFrame(p []byte, r *Record, fn func(end int) bool) error {
	if len(p) == 0 || p[0] != frameTag {
		return ErrFormat
	}
	d := reader{b: p[1:]}
	lsn := LSN(d.uvarint())
	if lsn == 0 || len(d.b) == 0 {
		d.fail()
	}
	for ; len(d.b) > 0; lsn++ {
		d.record(r, lsn)
		if d.err != nil {
			break
		}
		if !fn(len(p) - len(d.b)) {
			return nil
		}
	}
	return d.err
}

// record parses one record, whose LSN is lsn, into r; d.b is not empty.
func (d *reader) record(r *Record, lsn LSN) {
	if d.b[0] < byte(RecBegin) || d.b[0] > byte(RecCkptEnd) {
		d.fail()
		return
	}
	*r = Record{LSN: lsn, Type: RecordType(d.b[0])}
	d.b = d.b[1:]
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
