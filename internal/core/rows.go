package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
	"unicode/utf8"

	"tendax/internal/db"
	"tendax/internal/texttree"
	"tendax/internal/txn"
	"tendax/internal/util"
)

// This file is the chars table's row layout. A row is one run in the form
// texttree.Run describes: the instances first, first+step, ..., one per
// rune of its text, the first typed after `after` with key `key` and every
// later one after the one before it, all with one author, instant,
// deletion state and source document. Typing a run writes one row, cut
// only by the buffer's rule (texttree.CutRuns), a text cap and the
// generator's stride: the step of a row of more than one instance is the
// stride, so its ID range holds the row's own instances and no ID another
// insert, of any document, was given. A delete, restore or compaction that
// reaches part of a row splits it: the other pieces are inserted, then the
// first piece updates the row, and no other row changes. Rows only split,
// so the ID ranges of the rows never overlap and a primary-key floor lookup
// finds the row of any instance.

// rowTextBytes caps the UTF-8 text of one chars row. A row of 128 bytes of
// text and ~30 of columns leaves room on a heap page for long names, and
// holds a 128-key batch of ASCII. A split logs the row's text about twice
// (the update's splice spans it), so a smaller cap makes deletes cheaper:
// a 6-character delete inside 500-rune runs logs ~598 B at 128, ~809 B at
// 256 and ~488 B at 64, where a 128-key batch takes two rows.
const rowTextBytes = 128

// rowBuf holds what encoding and splitting rows reuses: the encoder, the
// records it wrote, buffers for a row's text and deletion state, and the
// expanded instances of a row with pointers to them.
type rowBuf struct {
	enc       db.RowEncoder
	recs      [][]byte
	text, del []byte
	chars     []texttree.Char
	ptrs      []*texttree.Char
}

// runRecord encodes the chars row of chars, one run as texttree.CutRuns
// cuts it, with rb's encoder.
func (d *Document) runRecord(rb *rowBuf, chars []*texttree.Char) ([]byte, error) {
	f := chars[0]
	var step, srcStep util.ID // 0 for a run of one
	if len(chars) > 1 {
		step, srcStep = chars[1].ID-f.ID, chars[1].SourceChar-f.SourceChar
	}
	rb.text = rb.text[:0]
	for _, c := range chars {
		rb.text = utf8.AppendRune(rb.text, c.Rune)
	}
	rb.del = appendDel(rb.del[:0], f)
	enc := &rb.enc
	enc.Int(int64(f.ID))
	enc.Int(int64(d.id))
	enc.Int(int64(step))
	enc.Int(int64(f.After))
	enc.Int(int64(f.Key))
	enc.StringBytes(rb.text)
	enc.String(f.Author)
	enc.Time(f.Created)
	enc.Bytes(rb.del)
	enc.Int(int64(f.SourceDoc))
	enc.Int(int64(f.SourceChar))
	enc.Int(int64(srcStep))
	return enc.End()
}

// appendDel appends the del column of an instance whose deletion state is
// c's: nothing if it was never deleted, else a flag byte (1: deleted), the
// deleter's name and the deletion and restore instants in UnixNano (0:
// none), as varints.
func appendDel(dst []byte, c *texttree.Char) []byte {
	if !c.Deleted && c.DeletedBy == "" && c.DeletedAt.IsZero() && c.Restored.IsZero() {
		return dst
	}
	flag := byte(0)
	if c.Deleted {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.AppendUvarint(dst, uint64(len(c.DeletedBy)))
	dst = append(dst, c.DeletedBy...)
	dst = binary.AppendVarint(dst, unixNano(c.DeletedAt))
	return binary.AppendVarint(dst, unixNano(c.Restored))
}

// errDel reports a del column that appendDel did not write.
var errDel = errors.New("core: corrupt deletion state in a chars row")

// readDel sets r's deletion state from its del column b.
func readDel(b []byte, r *texttree.Run) error {
	if len(b) == 0 {
		return nil
	}
	r.Deleted, b = b[0] == 1, b[1:]
	n, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < n {
		return errDel
	}
	r.DeletedBy, b = string(b[k:k+int(n)]), b[k+int(n):]
	at, k := binary.Varint(b)
	if k <= 0 {
		return errDel
	}
	restored, k2 := binary.Varint(b[k:])
	if k2 <= 0 || k+k2 != len(b) {
		return errDel
	}
	r.DeletedAt, r.Restored = fromUnixNano(at), fromUnixNano(restored)
	return nil
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromUnixNano(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// runFromRow returns the run a chars row stores and its document.
func runFromRow(row db.Row) (texttree.Run, util.ID, error) {
	r := texttree.Run{
		First:       util.ID(row[0].(int64)),
		Step:        util.ID(row[2].(int64)),
		After:       util.ID(row[3].(int64)),
		Key:         util.ID(row[4].(int64)),
		Text:        row[5].(string),
		Author:      row[6].(string),
		Created:     row[7].(time.Time),
		SourceDoc:   util.ID(row[9].(int64)),
		SourceFirst: util.ID(row[10].(int64)),
		SourceStep:  util.ID(row[11].(int64)),
	}
	if err := readDel(row[8].([]byte), &r); err != nil {
		return texttree.Run{}, 0, fmt.Errorf("%w (row %v)", err, r.First)
	}
	return r, util.ID(row[1].(int64)), nil
}

// runOf returns the row of the instance id: the row with the greatest
// primary key at or below id, if its run holds id.
func (e *Engine) runOf(tx *txn.Txn, id util.ID) (texttree.Run, util.ID, error) {
	row, _, err := e.tChars.FloorByPK(tx, int64(id))
	if err != nil && !errors.Is(err, db.ErrNotFound) {
		return texttree.Run{}, 0, err
	}
	if err == nil {
		r, doc, err := runFromRow(row)
		if err != nil || r.Index(id) >= 0 {
			return r, doc, err
		}
	}
	return texttree.Run{}, 0, fmt.Errorf("core: char %v not found", id)
}

// insertRuns writes chars, new instances in the order created (each run of
// them in document order), as one row per run.
func (d *Document) insertRuns(tx *txn.Txn, rb *rowBuf, chars []*texttree.Char) error {
	rb.recs = rb.recs[:0]
	var err error
	texttree.CutRuns(len(chars), func(i int) *texttree.Char { return chars[i] }, d.eng.rowStep(), rowTextBytes, func(lo, hi int) {
		var rec []byte
		if err == nil {
			rec, err = d.runRecord(rb, chars[lo:hi])
			rb.recs = append(rb.recs, rec)
		}
	})
	if err != nil {
		return err
	}
	return d.eng.tChars.InsertRecords(tx, rb.recs...)
}

// rowStep is the ID step of every chars row of more than one instance.
func (e *Engine) rowStep() util.ID { return util.ID(e.ids.Stride()) }

// rowChange is a new state of an existing instance: its final record, or
// nil when the instance leaves the chars table (compaction).
type rowChange struct {
	id util.ID
	ch *texttree.Char
}

// rewriteRuns writes changes, sorted by ID, to the rows that hold their
// instances. Each row is expanded, changed and cut again into runs: every
// run but the one that starts at the row's first instance is inserted as a
// new row, then that run updates the row (a row whose first instance
// leaves is deleted). Each instance that stays is in a row at every step,
// and at every step of the rollback too.
func (d *Document) rewriteRuns(tx *txn.Txn, rb *rowBuf, changes []rowChange) error {
	for i := 0; i < len(changes); {
		run, doc, err := d.eng.runOf(tx, changes[i].id)
		if err == nil && doc != d.id {
			err = fmt.Errorf("core: char %v belongs to document %v", changes[i].id, doc)
		}
		if err != nil {
			return err
		}
		rb.chars = run.AppendChars(rb.chars[:0])
		rb.ptrs = rb.ptrs[:0]
		for k := range rb.chars {
			rb.ptrs = append(rb.ptrs, &rb.chars[k])
		}
		last := run.Last()
		for ; i < len(changes) && changes[i].id <= last; i++ {
			k := run.Index(changes[i].id)
			if k < 0 {
				return fmt.Errorf("core: char %v not found", changes[i].id)
			}
			if ch := changes[i].ch; ch == nil {
				rb.ptrs[k] = nil
			} else {
				c := rb.ptrs[k]
				c.After, c.Key = ch.After, ch.Key
				c.Deleted, c.DeletedBy = ch.Deleted, ch.DeletedBy
				// Instants as a row stores them, so runs cut from decoded
				// and changed instances compare them alike.
				c.DeletedAt, c.Restored = fromUnixNano(unixNano(ch.DeletedAt)), fromUnixNano(unixNano(ch.Restored))
			}
		}
		kept := slices.DeleteFunc(rb.ptrs, func(c *texttree.Char) bool { return c == nil })
		rb.recs = rb.recs[:0]
		var first []byte // the record of the run starting at run.First
		texttree.CutRuns(len(kept), func(i int) *texttree.Char { return kept[i] }, d.eng.rowStep(), rowTextBytes, func(lo, hi int) {
			var rec []byte
			if err == nil {
				rec, err = d.runRecord(rb, kept[lo:hi])
			}
			if err == nil && kept[lo].ID == run.First {
				first = rec
			} else if err == nil {
				rb.recs = append(rb.recs, rec)
			}
		})
		if err == nil {
			err = d.eng.tChars.InsertRecords(tx, rb.recs...)
		}
		if err == nil && first != nil {
			err = d.eng.tChars.UpdateRecord(tx, first)
		} else if err == nil {
			err = d.eng.tChars.DeleteByPK(tx, int64(run.First))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
