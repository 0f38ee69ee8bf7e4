package texttree

import (
	"time"
	"unicode/utf8"

	"tendax/internal/util"
)

// run is the record the buffer stores: a set of instances inserted
// together, with one author, one Created, one provenance and one deletion
// state, whose IDs form one ascending arithmetic progression and each of
// which was typed right after the one before it. Instance i has ID
// first+i*step and rune runes[i]; instance 0 has After after and Key key,
// every later instance After the instance before it and its own ID as Key.
// A single key is a run of one.
//
// A record is immutable once a mirror segment names it, so snapshots
// share it freely: an edit that changes some of its instances (a delete,
// an undelete, a compaction re-anchor) points them at one new record for
// that sub-range, which shares the runes, and cuts their segment around
// it.
type run struct {
	first, step util.ID
	after, key  util.ID
	runes       []rune
	author      string
	created     time.Time
	meta        *runMeta // nil: never deleted and not pasted
	one         [1]rune  // holds runes for a run of one
}

// runMeta is the part of a record most runs do not need: provenance and
// deletion state. It is as immutable as the record that holds it.
type runMeta struct {
	srcDoc            util.ID
	srcFirst, srcStep util.ID // instance i was copied from srcFirst+i*srcStep
	deleted           bool
	deletedBy         string
	deletedAt         time.Time
	restored          time.Time
}

func (r *run) len() int { return len(r.runes) }

// id returns the ID of instance i.
func (r *run) id(i int) util.ID { return nthID(r.first, r.step, i) }

// last returns the ID of the last instance.
func (r *run) last() util.ID { return r.id(len(r.runes) - 1) }

// index returns the offset of id in r, or -1 if r does not hold it.
func (r *run) index(id util.ID) int { return indexOf(r.first, r.step, len(r.runes), id) }

// nthID returns ID i of the progression first, first+step, ....
func nthID(first, step util.ID, i int) util.ID { return first + util.ID(i)*step }

// indexOf returns the offset of id in the progression of n IDs first,
// first+step, ..., or -1 if it does not hold id. The step of a progression
// of one is not read.
func indexOf(first, step util.ID, n int, id util.ID) int {
	if id == first {
		return 0
	}
	if id < first || id > nthID(first, step, n-1) || (id-first)%step != 0 {
		return -1
	}
	return int((id - first) / step)
}

func (r *run) deleted() bool { return r.meta != nil && r.meta.deleted }

// fill sets *c to instance i of r.
func (r *run) fill(c *Char, i int) {
	*c = Char{Author: r.author, Created: r.created}
	if m := r.meta; m != nil {
		c.Deleted, c.DeletedBy, c.DeletedAt, c.Restored = m.deleted, m.deletedBy, m.deletedAt, m.restored
		c.SourceDoc = m.srcDoc
	}
	r.fillOwn(c, i)
}

// fillOwn sets the fields that differ between the instances of r on *c,
// which holds an instance of r: moving a walk along one record rewrites
// these and nothing else.
func (r *run) fillOwn(c *Char, i int) {
	c.ID, c.Rune = r.id(i), r.runes[i]
	c.After, c.Key = r.after, r.key
	if i > 0 {
		c.After, c.Key = c.ID-r.step, c.ID
	}
	if m := r.meta; m != nil {
		c.SourceChar = m.srcFirst + util.ID(i)*m.srcStep
	}
}

// sub returns a new record for the instances [i, i+n) of r whose metadata
// is m; the first of them keeps its After and Key. The runes are shared.
func (r *run) sub(i, n int, m *runMeta) *run {
	s := &run{first: r.id(i), step: r.step, after: r.after, key: r.key,
		runes: r.runes[i : i+n : i+n], author: r.author, created: r.created, meta: m}
	if i > 0 {
		s.after, s.key = s.first-r.step, s.first
	}
	return s
}

// subMeta returns the metadata of the sub-record of r starting at
// instance i, with its deletion state replaced by del's.
func (r *run) subMeta(i int, del runMeta) runMeta {
	if r.meta != nil {
		del.srcDoc = r.meta.srcDoc
		del.srcFirst = r.meta.srcFirst + util.ID(i)*r.meta.srcStep
		del.srcStep = r.meta.srcStep
	}
	return del
}

// share returns a pointer to metadata equal to m: last if it is equal,
// else a new copy.
func share(last *runMeta, m runMeta) *runMeta {
	if last != nil && *last == m {
		return last
	}
	p := new(runMeta)
	*p = m
	return p
}

// sameRun reports whether c can share the record of f: every field but
// the ones fillOwn sets is equal.
func sameRun(f, c *Char) bool {
	return c.Author == f.Author && c.Created == f.Created &&
		c.Deleted == f.Deleted && c.DeletedBy == f.DeletedBy &&
		c.DeletedAt == f.DeletedAt && c.Restored == f.Restored &&
		c.SourceDoc == f.SourceDoc
}

// cutRuns calls fn with the bounds [lo, hi) of each record the n instances
// at(0), ..., at(n-1) — in document or in ID order — are cut into: the longest
// stretches that share one record's metadata, ascend by one ID step (by
// idStep, unless it is 0) and one source step, in which chained holds for
// every instance but the first (it reports whether instance i is typed
// after instance i-1 and keyed by its own ID), and whose runes take at most
// maxBytes of UTF-8 (0: no limit).
func cutRuns(n int, at func(int) *Char, chained func(int) bool, idStep util.ID, maxBytes int, fn func(lo, hi int)) {
	for lo := 0; lo < n; {
		f := at(lo)
		hi := lo + 1
		size := runeBytes(f.Rune)
		var step, srcStep util.ID
		for ; hi < n; hi++ {
			p, c := at(hi-1), at(hi)
			if c.ID <= p.ID || !chained(hi) || !sameRun(f, c) {
				break
			}
			if size += runeBytes(c.Rune); maxBytes > 0 && size > maxBytes {
				break
			}
			if hi == lo+1 {
				step, srcStep = c.ID-p.ID, c.SourceChar-p.SourceChar
				if idStep != 0 && step != idStep {
					break
				}
			} else if c.ID-p.ID != step || c.SourceChar-p.SourceChar != srcStep {
				break
			}
		}
		fn(lo, hi)
		lo = hi
	}
}

// runeBytes returns the bytes r takes in UTF-8 (an invalid rune is
// written as utf8.RuneError).
func runeBytes(r rune) int {
	if n := utf8.RuneLen(r); n > 0 {
		return n
	}
	return utf8.RuneLen(utf8.RuneError)
}

// chainedAt returns the chained predicate of cutRuns for the instances
// at(0), ..., at(n-1): instance i is typed right after instance i-1 and
// keyed by its own ID.
func chainedAt(at func(int) *Char) func(int) bool {
	return func(i int) bool {
		c := at(i)
		return c.After == at(i-1).ID && c.Key == c.ID
	}
}

// CutRuns calls fn with the bounds [lo, hi) of each run the n instances
// at(0), ..., at(n-1) are cut into as the buffer cuts its records — the
// longest stretches with one author, Created, deletion state and source
// document, whose IDs ascend by one step and source IDs by one source
// step, each instance typed after the one before it and keyed by its own
// ID — with at most maxBytes of UTF-8 text in each: the rule by which a
// database stores instances as runs. A run of more than one instance
// ascends by idStep, unless it is 0.
func CutRuns(n int, at func(int) *Char, idStep util.ID, maxBytes int, fn func(lo, hi int)) {
	cutRuns(n, at, chainedAt(at), idStep, maxBytes, fn)
}

// Run is a record in the form a database stores it: the instances First,
// First+Step, ..., one per rune of Text; the first typed after After with
// Key Key, every later one after the one before it with its own ID as Key;
// all with one author, Created, deletion state and source document, and
// instance i copied from SourceFirst+i*SourceStep. LoadRuns builds a
// buffer from runs.
type Run struct {
	First, Step util.ID
	After, Key  util.ID
	Text        string
	Author      string
	Created     time.Time
	Deleted     bool
	DeletedBy   string
	DeletedAt   time.Time
	Restored    time.Time
	SourceDoc   util.ID
	SourceFirst util.ID
	SourceStep  util.ID
}

// Len returns the number of instances of r.
func (r *Run) Len() int { return utf8.RuneCountInString(r.Text) }

// Last returns the ID of the last instance of r.
func (r *Run) Last() util.ID { return nthID(r.First, r.Step, r.Len()-1) }

// Index returns the offset of id in r, or -1 if r does not hold it.
func (r *Run) Index(id util.ID) int { return indexOf(r.First, r.Step, r.Len(), id) }

// AppendChars appends the instances of r to dst, in order.
func (r *Run) AppendChars(dst []Char) []Char {
	rec, _ := r.record(nil, nil)
	for i := range rec.runes {
		var c Char
		rec.fill(&c, i)
		dst = append(dst, c)
	}
	return dst
}

// record returns r as a buffer record, whose runes it appends to block (a
// new array when block lacks the room), and the block; the record's
// metadata is last if equal.
func (r *Run) record(block []rune, last *runMeta) (run, []rune) {
	start := len(block)
	for _, c := range r.Text {
		block = append(block, c)
	}
	rec := run{first: r.First, step: r.Step, after: r.After, key: r.Key,
		runes: block[start:len(block):len(block)], author: r.Author, created: r.Created}
	if rec.step == 0 {
		rec.step = 1 // a run of one has no step; the record needs one
	}
	if r.Deleted || r.DeletedBy != "" || !r.DeletedAt.IsZero() || !r.Restored.IsZero() ||
		!r.SourceDoc.IsNil() || !r.SourceFirst.IsNil() || r.SourceStep != 0 {
		rec.meta = share(last, runMeta{srcDoc: r.SourceDoc, srcFirst: r.SourceFirst, srcStep: r.SourceStep,
			deleted: r.Deleted, deletedBy: r.DeletedBy, deletedAt: r.DeletedAt, restored: r.Restored})
	}
	return rec, block
}

// newRuns returns the records of the n instances at(0), ..., at(n-1) as
// cutRuns cuts them, in one block with one rune array; anchor returns the
// After and Key of the record starting at lo. Records with equal metadata
// share one runMeta.
func newRuns(n int, at func(int) *Char, chained func(int) bool, anchor func(lo int) (after, key util.ID)) []run {
	count := 0
	cutRuns(n, at, chained, 0, 0, func(int, int) { count++ })
	recs := make([]run, count)
	var runes []rune
	if n > 1 {
		runes = make([]rune, n)
	}
	k := 0
	var last *runMeta
	cutRuns(n, at, chained, 0, 0, func(lo, hi int) {
		r, f := &recs[k], at(lo)
		k++
		r.first, r.step = f.ID, 1
		if hi-lo > 1 {
			r.step = at(lo+1).ID - f.ID
		}
		r.after, r.key = anchor(lo)
		r.author, r.created = f.Author, f.Created
		if n == 1 {
			r.runes = r.one[:]
		} else {
			r.runes = runes[lo:hi:hi]
		}
		for i := lo; i < hi; i++ {
			r.runes[i-lo] = at(i).Rune
		}
		if f.Deleted || f.DeletedBy != "" || !f.DeletedAt.IsZero() || !f.Restored.IsZero() ||
			!f.SourceDoc.IsNil() || !f.SourceChar.IsNil() || (hi-lo > 1 && at(lo+1).SourceChar != f.SourceChar) {
			m := runMeta{srcDoc: f.SourceDoc, srcFirst: f.SourceChar, deleted: f.Deleted,
				deletedBy: f.DeletedBy, deletedAt: f.DeletedAt, restored: f.Restored}
			if hi-lo > 1 {
				m.srcStep = at(lo+1).SourceChar - f.SourceChar
			}
			last = share(last, m)
			r.meta = last
		}
	})
	return recs
}
