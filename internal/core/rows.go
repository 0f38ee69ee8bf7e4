package core

import (
	"cmp"
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
// only by the buffer's rule (texttree's cutRuns), a text cap and the
// generator's stride: the step of a row of more than one instance is the
// stride, so its ID range holds the row's own instances and no ID another
// insert, of any document, was given. A delete, restore or compaction that
// reaches part of a row splits it into the index ranges it keeps, flips
// and drops: the other pieces are inserted, then the first piece updates
// the row, and no other row changes. Rows only split, so the ID ranges of
// the rows never overlap and a primary-key floor lookup finds the row of
// any instance. Nothing here builds a record per character: a batch
// stages runs (stagedRun) and stretches (rowEdit), and rows are cut from
// them by index.

// rowTextBytes caps the UTF-8 text of one chars row. A row of 128 bytes of
// text and ~30 of columns leaves room on a heap page for long names, and
// holds a 128-key batch of ASCII. A split logs the row's text about twice
// (the update's splice spans it), so a smaller cap makes deletes cheaper:
// a 6-character delete inside 500-rune runs logs ~598 B at 128, ~809 B at
// 256 and ~488 B at 64, where a 128-key batch takes two rows.
const rowTextBytes = 128

// rowBuf holds what reading, encoding and splitting rows reuses: the
// encoder, the records it wrote, buffers for a row's text and deletion
// state, the record last read and the authors met, and the edits, index
// ranges and pieces of the rows being split.
type rowBuf struct {
	enc       db.RowEncoder
	recs      [][]byte
	text, del []byte
	rec       []byte
	authors   []string
	edits     []rowEdit
	ranges    []rowEdit // of one row: first and n are an index range
	pieces    []rowPiece
}

// runRecord encodes r as a chars row with rb's encoder.
func (d *Document) runRecord(rb *rowBuf, r *texttree.Run) ([]byte, error) {
	rb.del = appendDel(rb.del[:0], r)
	enc := &rb.enc
	enc.Int(int64(r.First))
	enc.Int(int64(d.id))
	enc.Int(int64(r.Step))
	enc.Int(int64(r.After))
	enc.Int(int64(r.Key))
	enc.String(r.Text)
	enc.String(r.Author)
	enc.Time(r.Created)
	enc.Bytes(rb.del)
	enc.Int(int64(r.SourceDoc))
	enc.Int(int64(r.SourceFirst))
	enc.Int(int64(r.SourceStep))
	return enc.End()
}

// appendDel appends the del column of a run whose deletion state is c's:
// nothing if it was never deleted, else a flag byte (1: deleted), the
// deleter's name and the deletion and restore instants in UnixNano (0:
// none), as varints.
func appendDel(dst []byte, c *texttree.Run) []byte {
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

// decodeRun returns the run the chars record rec stores and its document,
// with no value boxed into a row; its author is a string rb returned
// before when it can be.
func (rb *rowBuf) decodeRun(t *db.Table, rec []byte) (texttree.Run, util.ID, error) {
	rd := t.Reader(rec)
	r := texttree.Run{First: util.ID(rd.Int())}
	doc := util.ID(rd.Int())
	r.Step, r.After, r.Key = util.ID(rd.Int()), util.ID(rd.Int()), util.ID(rd.Int())
	r.Text = string(rd.StringBytes())
	r.Author = rb.author(rd.StringBytes())
	r.Created = rd.Time()
	del := rd.Bytes()
	r.SourceDoc, r.SourceFirst, r.SourceStep = util.ID(rd.Int()), util.ID(rd.Int()), util.ID(rd.Int())
	if err := rd.End(); err != nil {
		return texttree.Run{}, 0, err
	}
	if err := readDel(del, &r); err != nil {
		return texttree.Run{}, 0, fmt.Errorf("%w (row %v)", err, r.First)
	}
	return r, doc, nil
}

// runOf returns the row of the instance id and its document: the row with
// the greatest primary key at or below id, if its run holds id. The
// row's record is read into rb.rec.
func (e *Engine) runOf(tx *txn.Txn, rb *rowBuf, id util.ID) (texttree.Run, util.ID, error) {
	rec, err := e.tChars.FloorRecordByPK(tx, int64(id), rb.rec[:0])
	if err != nil && !errors.Is(err, db.ErrNotFound) {
		return texttree.Run{}, 0, err
	}
	if err == nil {
		rb.rec = rec
		r, doc, err := rb.decodeRun(e.tChars, rec)
		if err != nil || r.Index(id) >= 0 {
			return r, doc, err
		}
	}
	return texttree.Run{}, 0, fmt.Errorf("core: char %v not found", id)
}

// author returns name as a string: one it returned before if it can, as
// the rows one batch rewrites have few authors.
func (rb *rowBuf) author(name []byte) string {
	for _, a := range rb.authors {
		if a == string(name) {
			return a
		}
	}
	if len(rb.authors) == cap(rb.authors) && len(rb.authors) >= 8 {
		rb.authors = rb.authors[:0]
	}
	a := string(name)
	rb.authors = append(rb.authors, a)
	return a
}

// stagedRun is a stretch of a batch's new instances in row form, with the
// deletion state they are written with: instance i has ID First+i*Step and
// rune i of Text, and was copied from src[i] where src holds it (a paste's
// per-instance sources), from nothing past its end, or, with src nil, from
// SourceFirst+i*SourceStep. Text is valid UTF-8.
type stagedRun struct {
	texttree.Run
	n   int
	src []util.ID
}

func (r *stagedRun) id(i int) util.ID { return r.First + util.ID(i)*r.Step }

func (r *stagedRun) srcAt(i int) util.ID {
	switch {
	case i < len(r.src):
		return r.src[i]
	case r.src != nil:
		return 0
	}
	return r.SourceFirst + util.ID(i)*r.SourceStep
}

// index returns the offset of id in r, or -1 if r does not hold it.
func (r *stagedRun) index(id util.ID) int {
	if id == r.First {
		return 0
	}
	if id < r.First || r.n == 1 || (id-r.First)%r.Step != 0 || (id-r.First)/r.Step >= util.ID(r.n) {
		return -1
	}
	return int((id - r.First) / r.Step)
}

// sub returns the instances [i, j) of r as a run of their own.
func (r *stagedRun) sub(i, j int) stagedRun {
	s := stagedRun{Run: r.Run.Sub(i, j), n: j - i}
	if r.src != nil {
		s.src = r.src[min(i, len(r.src)):min(j, len(r.src))]
	}
	return s
}

// sameState reports whether a row of r can hold an instance of c: one
// author, Created, deletion state and source document.
func sameState(r, c *texttree.Run) bool {
	return r.Author == c.Author && r.Created.Equal(c.Created) && r.Deleted == c.Deleted &&
		r.DeletedBy == c.DeletedBy && r.DeletedAt.Equal(c.DeletedAt) && r.Restored.Equal(c.Restored) &&
		r.SourceDoc == c.SourceDoc
}

// insertRows writes runs, a batch's new instances in the order created,
// as chars rows cut by the rule texttree's cutRuns states for instances:
// each row the longest stretch, in order, of instances with one author,
// Created, deletion state and source document, each typed after the one
// before it at the next ID of the stride, with sources ascending by one
// step and at most rowTextBytes of text. A row may span runs: two parts
// of a typed run that later ops of the batch deleted one after the other.
func (d *Document) insertRows(tx *txn.Txn, rb *rowBuf, runs []stagedRun) error {
	rb.recs = rb.recs[:0]
	stride := d.eng.rowStep()
	var row texttree.Run // the row being cut
	var n, size int      // its instances and bytes of text
	// Its text is from.Text[off:end], or rb.text's when off is -1.
	var from *stagedRun
	var off, end int
	var lastID, lastSrc, srcStep util.ID
	emit := func() error {
		if n > 1 {
			row.Step, row.SourceStep = stride, srcStep
		}
		if off >= 0 {
			row.Text = from.Text[off:end]
		} else {
			row.Text = string(rb.text)
		}
		rec, err := d.runRecord(rb, &row)
		rb.recs = append(rb.recs, rec)
		return err
	}
	for i := range runs {
		p := &runs[i]
		joins := n > 0 && p.After == lastID && p.Key == p.First && p.First == lastID+stride && sameState(&row, &p.Run)
		b := 0 // the byte offset in p.Text
		for k := 0; k < p.n; k++ {
			_, w := utf8.DecodeRuneInString(p.Text[b:])
			id, src := p.id(k), p.srcAt(k)
			switch {
			case n > 0 && (k > 0 && p.Step == stride || k == 0 && joins) && size+w <= rowTextBytes &&
				(n == 1 || src-lastSrc == srcStep):
				if n == 1 {
					srcStep = src - lastSrc
				}
				n, size = n+1, size+w
				if k == 0 && off >= 0 { // the row spans two runs
					rb.text = append(rb.text[:0], from.Text[off:end]...)
					off = -1
				}
				if off >= 0 {
					end = b + w
				} else {
					rb.text = append(rb.text, p.Text[b:b+w]...)
				}
			default:
				if n > 0 {
					if err := emit(); err != nil {
						return err
					}
				}
				row = p.Run
				row.First, row.Step, row.SourceFirst, row.SourceStep = id, 0, src, 0
				if k > 0 {
					row.After, row.Key = p.id(k-1), id
				}
				n, size, from, off, end = 1, w, p, b, b+w
			}
			lastID, lastSrc, b = id, src, b+w
		}
	}
	if n > 0 {
		if err := emit(); err != nil {
			return err
		}
	}
	return d.eng.tChars.InsertRecords(tx, rb.recs...)
}

// rowStep is the ID step of every chars row of more than one instance.
func (e *Engine) rowStep() util.ID { return util.ID(e.ids.Stride()) }

// editKind is what a rowEdit does to its instances.
type editKind uint8

const (
	// editFlip flips their deletion state: a visible row's instances are
	// deleted by the batch's user, a deleted row's restored, at its instant.
	editFlip   editKind = iota
	editDrop            // they leave the chars table (compaction)
	editAnchor          // its one instance is typed after `after` (compaction)
)

// rowEdit changes the existing instances first, first+step, ... (n of
// them) in the rows that hold them.
type rowEdit struct {
	first, step util.ID
	n           int
	kind        editKind
	after       util.ID
}

func (e *rowEdit) last() util.ID { return e.first + util.ID(e.n-1)*e.step }

// holds reports whether id is one of e's instances.
func (e *rowEdit) holds(id util.ID) bool {
	return id == e.first || id > e.first && id <= e.last() && (id-e.first)%e.step == 0
}

// rowPiece is an index range of a row that stays in the table: flipped or
// not, its first instance re-anchored after `after` or not.
type rowPiece struct {
	lo, hi   int
	flip     bool
	anchored bool
	after    util.ID
}

// rewriteRuns applies edits to the rows that hold their instances, each
// row in one step: the row's index ranges are kept, flipped (by by at at)
// or dropped as the edits say, and cut into the fewest pieces — every
// piece but the one that starts at the row's first instance is inserted as
// a new row, then that piece updates the row (a row whose first instance
// leaves is deleted). Each instance that stays is in a row at every step,
// and at every step of the rollback too. The rows are taken in ID order.
func (d *Document) rewriteRuns(tx *txn.Txn, rb *rowBuf, edits []rowEdit, by string, at time.Time) error {
	es := append(rb.edits[:0], edits...)
	slices.SortFunc(es, func(a, b rowEdit) int { return cmp.Compare(a.first, b.first) })
	for i := 1; i < len(es); i++ {
		if es[i-1].last() >= es[i].first {
			// Interleaved stretches: edit one instance at a time.
			var one []rowEdit
			for _, e := range es {
				for j := 0; j < e.n; j++ {
					one = append(one, rowEdit{first: e.first + util.ID(j)*e.step, step: 1, n: 1, kind: e.kind, after: e.after})
				}
			}
			slices.SortFunc(one, func(a, b rowEdit) int { return cmp.Compare(a.first, b.first) })
			es = one
			break
		}
	}
	rb.edits = es[:0]
	for i := 0; i < len(es); {
		row, doc, err := d.eng.runOf(tx, rb, es[i].first)
		if err == nil && doc != d.id {
			err = fmt.Errorf("core: char %v belongs to document %v", es[i].first, doc)
		}
		if err != nil {
			return err
		}
		n, last := row.Len(), row.Last()
		rs := rb.ranges[:0]
		for ; i < len(es) && es[i].first <= last; i++ {
			e := &es[i]
			k := row.Index(e.first)
			if k < 0 {
				return fmt.Errorf("core: char %v not found", e.first)
			}
			m := 1
			if e.n > 1 && e.step == row.Step {
				m = min(e.n, n-k)
			}
			rs = append(rs, rowEdit{first: util.ID(k), n: m, kind: e.kind, after: e.after})
			if e.first, e.n = e.first+util.ID(m)*e.step, e.n-m; e.n > 0 {
				i-- // the rest is in a later row, or later in this one
			}
		}
		rb.ranges = rs
		if err := d.rewriteRow(tx, rb, &row, n, rs, by, at); err != nil {
			return err
		}
	}
	return nil
}

// rewriteRow writes row, of n instances, with the index ranges rs, in
// order, edited: see rewriteRuns.
func (d *Document) rewriteRow(tx *txn.Txn, rb *rowBuf, row *texttree.Run, n int, rs []rowEdit, by string, at time.Time) error {
	ps := rb.pieces[:0]
	add := func(lo, hi int, flip, anchored bool, after util.ID) {
		if lo >= hi {
			return
		}
		// A piece joins the one before it when its first instance is
		// still typed after that piece's last, in the same state.
		if k := len(ps) - 1; k >= 0 && ps[k].hi == lo && ps[k].flip == flip &&
			(!anchored || after == row.First+util.ID(lo-1)*row.Step) {
			ps[k].hi = hi
			return
		}
		ps = append(ps, rowPiece{lo, hi, flip, anchored, after})
	}
	cur := 0
	for _, r := range rs {
		lo, hi := int(r.first), int(r.first)+r.n
		add(cur, lo, false, false, 0)
		switch r.kind {
		case editFlip:
			add(lo, hi, true, false, 0)
		case editAnchor:
			add(lo, hi, false, true, r.after)
		}
		cur = hi
	}
	add(cur, n, false, false, 0)
	rb.pieces = ps

	rb.recs = rb.recs[:0]
	var first []byte // the record of the piece starting at row.First
	for _, p := range ps {
		r := row.Sub(p.lo, p.hi)
		if p.anchored {
			r.After = p.after
		}
		if p.flip && row.Deleted {
			r.Deleted, r.Restored = false, at
		} else if p.flip {
			r.Deleted, r.DeletedBy, r.DeletedAt, r.Restored = true, by, at, time.Time{}
		}
		rec, err := d.runRecord(rb, &r)
		if err != nil {
			return err
		}
		if p.lo == 0 {
			first = rec
		} else {
			rb.recs = append(rb.recs, rec)
		}
	}
	err := d.eng.tChars.InsertRecords(tx, rb.recs...)
	if err == nil && first != nil {
		err = d.eng.tChars.UpdateRecord(tx, first)
	} else if err == nil {
		err = d.eng.tChars.DeleteByPK(tx, int64(row.First))
	}
	return err
}
