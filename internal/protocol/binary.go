package protocol

// This file implements the protocol-v3 binary wire encoding. A v3 frame is
//
//	0xB3  uvarint(len(payload))  payload
//
// where the payload is one Message packed with a presence bitmap: a uvarint
// whose bit i says "field i follows", with zero-valued fields skipped
// entirely — exactly the fields JSON's omitempty drops, so a frame and the
// JSON spelling of the same message (the tests' canonical form) are
// semantically identical (the codec fuzz pins this). Scalars are varints
// (zigzag for signed values), strings are length-prefixed bytes,
// well-known protocol strings (ops, kinds, scopes) compress to a one-byte
// symbol-table index, and character-ID lists are run-length/delta coded —
// a freshly typed run of n characters has n consecutive IDs and costs
// three varints instead of n decimal numbers.
//
// Every frame on a connection is a v3 frame, the hello that opens it
// included; a receiver refuses a frame that does not open with 0xB3.
//
// The symbol table and the bit assignments below are part of the v3 wire
// format: append-only, never reorder or remove.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unicode/utf8"
)

const (
	// binMagic opens every frame. It is not a valid first byte of any
	// JSON document, so a JSON line from a version-1 peer is refused at
	// its first byte.
	binMagic = 0xB3

	// MaxBinaryFrame caps a binary frame's payload; a length prefix beyond
	// it is rejected before any allocation.
	MaxBinaryFrame = 1 << 26

	// maxListElems caps decoded list lengths (fuzz-safety: a few bytes must
	// not claim a giant allocation).
	maxListElems = 1 << 20
)

// Symbol table for well-known protocol strings. Append-only: the indexes
// are on the wire.
var symTable []string
var symIndex map[string]uint64

func init() {
	symIndex = make(map[string]uint64)
	add := func(ss ...string) {
		for _, s := range ss {
			if _, dup := symIndex[s]; !dup {
				symIndex[s] = uint64(len(symTable))
				symTable = append(symTable, s)
			}
		}
	}
	add(TypeRequest, TypeResponse, TypePush)
	add(OpLogin, OpHello, OpEdit, OpResync, OpAnchors, OpCreateDoc,
		OpOpenDoc, OpListDocs, OpInsert, OpAppend, OpDelete, OpCopy,
		OpPaste, OpUndo, OpRedo, OpLayout, OpNote, OpVersion, OpVersions,
		OpVersionText, OpText, OpRead, OpSubscribe, OpUnsubscribe,
		OpCursor, OpPresence, OpHistory)
	add(EditInsert, EditDelete, EditLayout, EditNote)
	add(EvLagged, "batch", "paste", "undo", "redo", "version", "workflow",
		"security", "join", "leave", "cursor", "rename", "resync")
	add(ScopeLocal, ScopeGlobal)
	add("draft", "review", "final")
	// Appended in protocol v3.1 (typed error codes). The table is
	// append-only: new symbols go after every existing one so older
	// encoders' indices stay valid.
	add(ErrThrottled)
	// Appended for the incremental query subsystem: the query op, its
	// typed error, the query kinds and the ranker names.
	add(OpQuery, ErrUnsupported, QuerySearch, QuerySources,
		"relevance", "newest", "most-cited", "most-read")
}

// --- primitive append helpers -------------------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func appendBytes(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendSym writes a well-known string as 1+index, or 0 followed by the
// literal for strings outside the table.
func appendSym(b []byte, s string) []byte {
	if idx, ok := symIndex[s]; ok {
		return appendUvarint(b, idx+1)
	}
	b = appendUvarint(b, 0)
	return appendBytes(b, s)
}

// appendIDList run-length/delta codes a character-ID list: element count,
// then (zigzag delta of run start from previous element, extra consecutive
// +1 elements) pairs.
func appendIDList(b []byte, ids []uint64) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	prev := uint64(0)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		b = appendZigzag(b, int64(ids[i]-prev))
		b = appendUvarint(b, uint64(j-i-1))
		prev = ids[j-1]
		i = j
	}
	return b
}

// --- primitive decode helpers -------------------------------------------

type bdec struct {
	b   []byte
	pos int

	// The storage of the hot frames' nested values, parked between frames
	// that do not carry them (see messageInto).
	ops     []EditOp
	results []EditResult
	event   *Event
}

func (d *bdec) rem() int { return len(d.b) - d.pos }

func (d *bdec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: truncated varint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *bdec) zigzag() (int64, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (d *bdec) i() (int, error) {
	v, err := d.zigzag()
	return int(v), err
}

func (d *bdec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.rem()) {
		return "", fmt.Errorf("protocol: string of %d bytes exceeds frame", n)
	}
	raw := d.b[d.pos : d.pos+int(n)]
	// v3 strings are strictly UTF-8: JSON, the canonical form frames are
	// checked against, silently replaces invalid sequences on decode, so
	// accepting them here would let the two disagree about the same frame.
	if !utf8.Valid(raw) {
		return "", fmt.Errorf("protocol: string is not valid UTF-8")
	}
	s := string(raw)
	d.pos += int(n)
	return s, nil
}

func (d *bdec) sym() (string, error) {
	v, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if v == 0 {
		return d.str()
	}
	if v > uint64(len(symTable)) {
		return "", fmt.Errorf("protocol: unknown symbol %d", v)
	}
	return symTable[v-1], nil
}

func (d *bdec) idList() ([]uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxListElems {
		return nil, fmt.Errorf("protocol: ID list of %d elements exceeds limit", n)
	}
	capHint := n
	if capHint > 4096 {
		capHint = 4096
	}
	out := make([]uint64, 0, capHint)
	prev := uint64(0)
	for uint64(len(out)) < n {
		delta, err := d.zigzag()
		if err != nil {
			return nil, err
		}
		extra, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if extra+1 > n-uint64(len(out)) {
			return nil, fmt.Errorf("protocol: ID run of %d overflows list of %d", extra+1, n)
		}
		v := prev + uint64(delta)
		out = append(out, v)
		for k := uint64(0); k < extra; k++ {
			v++
			out = append(out, v)
		}
		prev = v
	}
	return out, nil
}

// count reads a list length and bounds it by the remaining payload (every
// element costs at least one byte).
func (d *bdec) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.rem()) || n > maxListElems {
		return 0, fmt.Errorf("protocol: list of %d elements exceeds frame", n)
	}
	return int(n), nil
}

// checkBits rejects presence bits beyond what this decoder understands —
// a frame from a future revision must fail loudly, not decode partially.
func checkBits(bm uint64, n int, what string) error {
	if bm>>uint(n) != 0 {
		return fmt.Errorf("protocol: unknown %s field bit %d", what, bits.Len64(bm)-1)
	}
	return nil
}

// Floats (search scores) travel as the IEEE-754 bit pattern in a uvarint;
// the round trip is exact.
func appendF64(b []byte, v float64) []byte {
	return appendUvarint(b, math.Float64bits(v))
}

func (d *bdec) f64() (float64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

func appendInt(b []byte, v int) []byte { return appendZigzag(b, int64(v)) }

// --- the generic driver ----------------------------------------------------

// A schema is the wire description of one struct: fields[i] owns presence
// bit i, and the set fields follow the bitmap in slice order. The tables
// below are the single statement of the v3 format — there is no other
// encoder or decoder to keep in step with them.
type schema[T any] struct {
	name   string // for decode errors
	fields []field[T]
}

// A field is one table line: whether the field is set in a value (zero
// values are skipped, as JSON's omitempty would), and how a set field is
// written and read back.
type field[T any] struct {
	has func(*T) bool
	enc func([]byte, *T) []byte
	dec func(*bdec, *T) error
}

func (s *schema[T]) append(b []byte, v *T) []byte {
	var bm uint64
	for i, bit := 0, uint64(1); i < len(s.fields); i, bit = i+1, bit<<1 {
		if s.fields[i].has(v) {
			bm |= bit
		}
	}
	b = appendUvarint(b, bm)
	for i := 0; bm != 0; i, bm = i+1, bm>>1 {
		if bm&1 != 0 {
			b = s.fields[i].enc(b, v)
		}
	}
	return b
}

// decode fills v, which must be zero apart from storage lent to its lists
// and nested pointers (see list and ptr), from d.
func (s *schema[T]) decode(d *bdec, v *T) error {
	bm, err := d.uvarint()
	if err != nil {
		return err
	}
	if err := checkBits(bm, len(s.fields), s.name); err != nil {
		return err
	}
	for i := 0; bm != 0; i, bm = i+1, bm>>1 {
		if bm&1 != 0 {
			if err := s.fields[i].dec(d, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- field kinds -----------------------------------------------------------
//
// Every kind takes an accessor returning the address of the field inside
// the struct — plain Go, checked by the compiler, no reflection.

// scalar is a field omitted when it equals F's zero value and coded by
// put/get otherwise.
func scalar[T any, F comparable](at func(*T) *F, put func([]byte, F) []byte, get func(*bdec) (F, error)) field[T] {
	return field[T]{
		has: func(v *T) bool { var zero F; return *at(v) != zero },
		enc: func(b []byte, v *T) []byte { return put(b, *at(v)) },
		dec: func(d *bdec, v *T) (err error) { *at(v), err = get(d); return err },
	}
}

func sym[T any](at func(*T) *string) field[T]  { return scalar(at, appendSym, (*bdec).sym) }
func str[T any](at func(*T) *string) field[T]  { return scalar(at, appendBytes, (*bdec).str) }
func u64[T any](at func(*T) *uint64) field[T]  { return scalar(at, appendUvarint, (*bdec).uvarint) }
func i64[T any](at func(*T) *int64) field[T]   { return scalar(at, appendZigzag, (*bdec).zigzag) }
func num[T any](at func(*T) *int) field[T]     { return scalar(at, appendInt, (*bdec).i) }
func f64[T any](at func(*T) *float64) field[T] { return scalar(at, appendF64, (*bdec).f64) }

// flag is a bool: the presence bit is the value, no bytes follow.
func flag[T any](at func(*T) *bool) field[T] {
	return scalar(at,
		func(b []byte, _ bool) []byte { return b },
		func(*bdec) (bool, error) { return true, nil })
}

// ids is a run-length/delta coded character-ID list, omitted when empty.
func ids[T any](at func(*T) *[]uint64) field[T] {
	return field[T]{
		has: func(v *T) bool { return len(*at(v)) > 0 },
		enc: func(b []byte, v *T) []byte { return appendIDList(b, *at(v)) },
		dec: func(d *bdec, v *T) (err error) { *at(v), err = d.idList(); return err },
	}
}

// optU64 is a uvarint whose zero is a value: present iff the pointer is set.
func optU64[T any](at func(*T) **uint64) field[T] {
	return field[T]{
		has: func(v *T) bool { return *at(v) != nil },
		enc: func(b []byte, v *T) []byte { return appendUvarint(b, **at(v)) },
		dec: func(d *bdec, v *T) error {
			x, err := d.uvarint()
			if err != nil {
				return err
			}
			*at(v) = &x
			return nil
		},
	}
}

// list is a counted list, omitted when empty; the count is bounded by the
// remaining payload before the slice is allocated. A slice the field
// already holds is reused, zeroed, when it has the capacity.
func list[T, E any](at func(*T) *[]E, put func([]byte, *E) []byte, get func(*bdec, *E) error) field[T] {
	return field[T]{
		has: func(v *T) bool { return len(*at(v)) > 0 },
		enc: func(b []byte, v *T) []byte {
			l := *at(v)
			b = appendUvarint(b, uint64(len(l)))
			for i := range l {
				b = put(b, &l[i])
			}
			return b
		},
		dec: func(d *bdec, v *T) error {
			n, err := d.count()
			if err != nil {
				return err
			}
			l := *at(v)
			if l != nil && cap(l) >= n {
				l = l[:n]
				clear(l)
			} else {
				l = make([]E, n)
			}
			*at(v) = l
			for i := range l {
				if err := get(d, &l[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func strs[T any](at func(*T) *[]string) field[T] {
	return list(at,
		func(b []byte, s *string) []byte { return appendBytes(b, *s) },
		func(d *bdec, s *string) (err error) { *s, err = d.str(); return err })
}

func structs[T, E any](at func(*T) *[]E, s *schema[E]) field[T] {
	return list(at, s.append, s.decode)
}

// ptr is an optional nested struct: present iff the pointer is set. A
// struct the field already points to is reused, zeroed.
func ptr[T, E any](at func(*T) **E, s *schema[E]) field[T] {
	return field[T]{
		has: func(v *T) bool { return *at(v) != nil },
		enc: func(b []byte, v *T) []byte { return s.append(b, *at(v)) },
		dec: func(d *bdec, v *T) error {
			e := *at(v)
			if e == nil {
				e = new(E)
				*at(v) = e
			} else {
				var zero E
				*e = zero
			}
			return s.decode(d, e)
		},
	}
}

// always is a nested struct value that is written even when zero.
func always[T, E any](at func(*T) *E, s *schema[E]) field[T] {
	return field[T]{
		has: func(*T) bool { return true },
		enc: func(b []byte, v *T) []byte { return s.append(b, at(v)) },
		dec: func(d *bdec, v *T) error { return s.decode(d, at(v)) },
	}
}

// --- the wire format, one table per struct ---------------------------------
//
// Slice index = presence bit = position on the wire. Append a line to add a
// field; never insert, reorder or remove one.

var editOpSchema = schema[EditOp]{"EditOp", []field[EditOp]{
	sym(func(o *EditOp) *string { return &o.Kind }),
	optU64(func(o *EditOp) **uint64 { return &o.After }),
	flag(func(o *EditOp) *bool { return &o.Prev }),
	num(func(o *EditOp) *int { return &o.Pos }),
	str(func(o *EditOp) *string { return &o.Text }),
	num(func(o *EditOp) *int { return &o.N }),
	ids(func(o *EditOp) *[]uint64 { return &o.Chars }),
	sym(func(o *EditOp) *string { return &o.Span }),
	str(func(o *EditOp) *string { return &o.Value }),
	u64(func(o *EditOp) *uint64 { return &o.SrcDoc }), // paste provenance
	ids(func(o *EditOp) *[]uint64 { return &o.SrcChars }),
}}

var editResultSchema = schema[EditResult]{"EditResult", []field[EditResult]{
	u64(func(r *EditResult) *uint64 { return &r.OpID }),
	ids(func(r *EditResult) *[]uint64 { return &r.IDs }),
	u64(func(r *EditResult) *uint64 { return &r.Span }),
	num(func(r *EditResult) *int { return &r.Pos }),
}}

var batchItemSchema = schema[BatchItem]{"BatchItem", []field[BatchItem]{
	sym(func(it *BatchItem) *string { return &it.Kind }),
	num(func(it *BatchItem) *int { return &it.Pos }),
	str(func(it *BatchItem) *string { return &it.Text }),
	num(func(it *BatchItem) *int { return &it.N }),
	ids(func(it *BatchItem) *[]uint64 { return &it.IDs }),
}}

var eventSchema = schema[Event]{"Event", []field[Event]{
	u64(func(e *Event) *uint64 { return &e.Seq }),
	u64(func(e *Event) *uint64 { return &e.Doc }),
	sym(func(e *Event) *string { return &e.Kind }),
	str(func(e *Event) *string { return &e.User }),
	num(func(e *Event) *int { return &e.Pos }),
	str(func(e *Event) *string { return &e.Text }),
	num(func(e *Event) *int { return &e.N }),
	str(func(e *Event) *string { return &e.Name }),
	structs(func(e *Event) *[]BatchItem { return &e.Batch }, &batchItemSchema),
	i64(func(e *Event) *int64 { return &e.AtNS }),
}}

var clipSchema = schema[Clip]{"Clip", []field[Clip]{
	str(func(c *Clip) *string { return &c.Text }),
	u64(func(c *Clip) *uint64 { return &c.SrcDoc }),
	ids(func(c *Clip) *[]uint64 { return &c.SrcChars }),
}}

var docInfoSchema = schema[DocInfo]{"DocInfo", []field[DocInfo]{
	u64(func(in *DocInfo) *uint64 { return &in.ID }),
	str(func(in *DocInfo) *string { return &in.Name }),
	str(func(in *DocInfo) *string { return &in.Creator }),
	num(func(in *DocInfo) *int { return &in.Size }),
	sym(func(in *DocInfo) *string { return &in.State }),
	strs(func(in *DocInfo) *[]string { return &in.Authors }),
	i64(func(in *DocInfo) *int64 { return &in.ModifiedNS }),
}}

var versionSchema = schema[Version]{"Version", []field[Version]{
	u64(func(v *Version) *uint64 { return &v.ID }),
	str(func(v *Version) *string { return &v.Name }),
	str(func(v *Version) *string { return &v.Author }),
	i64(func(v *Version) *int64 { return &v.AtNS }),
}}

var presenceSchema = schema[Presence]{"Presence", []field[Presence]{
	str(func(p *Presence) *string { return &p.User }),
	num(func(p *Presence) *int { return &p.Cursor }),
}}

var historyOpSchema = schema[HistoryOp]{"HistoryOp", []field[HistoryOp]{
	u64(func(h *HistoryOp) *uint64 { return &h.ID }),
	str(func(h *HistoryOp) *string { return &h.User }),
	sym(func(h *HistoryOp) *string { return &h.Kind }),
	num(func(h *HistoryOp) *int { return &h.Chars }),
	flag(func(h *HistoryOp) *bool { return &h.Undone }),
}}

var queryReqSchema = schema[QueryReq]{"QueryReq", []field[QueryReq]{
	sym(func(q *QueryReq) *string { return &q.Kind }),
	strs(func(q *QueryReq) *[]string { return &q.Terms }),
	flag(func(q *QueryReq) *bool { return &q.InHeadings }),
	sym(func(q *QueryReq) *string { return &q.Rank }),
	num(func(q *QueryReq) *int { return &q.Limit }),
	u64(func(q *QueryReq) *uint64 { return &q.Doc }),
	num(func(q *QueryReq) *int { return &q.Pos }),
	num(func(q *QueryReq) *int { return &q.N }),
}}

var searchHitSchema = schema[SearchHit]{"SearchHit", []field[SearchHit]{
	always(func(h *SearchHit) *DocInfo { return &h.Doc }, &docInfoSchema), // the hit's identity
	f64(func(h *SearchHit) *float64 { return &h.Score }),
	str(func(h *SearchHit) *string { return &h.Snippet }),
}}

var sourceRefSchema = schema[SourceRef]{"SourceRef", []field[SourceRef]{
	u64(func(r *SourceRef) *uint64 { return &r.SrcDoc }),
	str(func(r *SourceRef) *string { return &r.SrcName }),
	num(func(r *SourceRef) *int { return &r.Chars }),
	num(func(r *SourceRef) *int { return &r.From }),
	num(func(r *SourceRef) *int { return &r.To }),
}}

// Message's bits are not in struct order: the hot-path fields sit in the
// low bits so the common frames (edit request, ack, push) pay a 1–2 byte
// bitmap.
var messageSchema = schema[Message]{"Message", []field[Message]{
	sym(func(m *Message) *string { return &m.Type }), // 0
	i64(func(m *Message) *int64 { return &m.ID }),
	sym(func(m *Message) *string { return &m.Op }),
	u64(func(m *Message) *uint64 { return &m.Doc }),
	flag(func(m *Message) *bool { return &m.OK }),
	u64(func(m *Message) *uint64 { return &m.Seq }), // 5
	structs(func(m *Message) *[]EditOp { return &m.Ops }, &editOpSchema),
	structs(func(m *Message) *[]EditResult { return &m.Results }, &editResultSchema),
	ptr(func(m *Message) **Event { return &m.Event }, &eventSchema),
	str(func(m *Message) *string { return &m.Text }),
	num(func(m *Message) *int { return &m.Pos }), // 10
	num(func(m *Message) *int { return &m.N }),
	str(func(m *Message) *string { return &m.Err }),
	u64(func(m *Message) *uint64 { return &m.OpID }),
	u64(func(m *Message) *uint64 { return &m.Snap }),
	ids(func(m *Message) *[]uint64 { return &m.IDs }), // 15
	structs(func(m *Message) *[]Event { return &m.Events }, &eventSchema),
	flag(func(m *Message) *bool { return &m.Full }),
	u64(func(m *Message) *uint64 { return &m.Since }),
	num(func(m *Message) *int { return &m.Ver }),
	str(func(m *Message) *string { return &m.User }), // 20
	str(func(m *Message) *string { return &m.Password }),
	str(func(m *Message) *string { return &m.Name }),
	sym(func(m *Message) *string { return &m.Kind }),
	str(func(m *Message) *string { return &m.Value }),
	sym(func(m *Message) *string { return &m.Scope }), // 25
	ptr(func(m *Message) **Clip { return &m.Clip }, &clipSchema),
	u64(func(m *Message) *uint64 { return &m.Version }),
	structs(func(m *Message) *[]DocInfo { return &m.Docs }, &docInfoSchema),
	structs(func(m *Message) *[]Version { return &m.Versions }, &versionSchema),
	structs(func(m *Message) *[]Presence { return &m.Present }, &presenceSchema), // 30
	structs(func(m *Message) *[]HistoryOp { return &m.History }, &historyOpSchema),
	sym(func(m *Message) *string { return &m.Code }),                            // typed errors
	i64(func(m *Message) *int64 { return &m.RetryMS }),                          // throttle backoff hint
	num(func(m *Message) *int { return &m.Shards }),                             // hello: engine shards
	ptr(func(m *Message) **QueryReq { return &m.Query }, &queryReqSchema),       // 35: query request
	structs(func(m *Message) *[]SearchHit { return &m.Hits }, &searchHitSchema), // query response
	structs(func(m *Message) *[]SourceRef { return &m.Sources }, &sourceRefSchema),
}}

// Presence bits of the Message fields whose storage messageInto reuses
// from frame to frame (their lines in messageSchema).
const (
	bitOps     = 1 << 6
	bitResults = 1 << 7
	bitEvent   = 1 << 8
)

// appendBinaryMessage packs m into b (the payload of one v3 frame).
func appendBinaryMessage(b []byte, m *Message) []byte { return messageSchema.append(b, m) }

// frameRoom is the space a frame header can take in front of its payload:
// the magic and a uvarint length.
const frameRoom = 1 + binary.MaxVarintLen64

// renderFrame renders m as one complete v3 binary frame (magic, length
// prefix, payload) inside buf, reusing its capacity. It returns the frame,
// a view into the returned buffer that is valid until buf is rendered into
// again.
func renderFrame(buf []byte, m *Message) (frame, grown []byte) {
	if cap(buf) < frameRoom {
		buf = make([]byte, frameRoom, 4*frameRoom)
	}
	buf = appendBinaryMessage(buf[:frameRoom], m)
	n := uint64(len(buf) - frameRoom)
	h := 1 + (bits.Len64(n|1)+6)/7 // the magic and the uvarint's length
	frame = buf[frameRoom-h:]
	frame[0] = binMagic
	binary.PutUvarint(frame[1:h], n)
	return frame, buf
}

// decodeBinaryMessage unpacks one v3 payload. Every length is validated
// against the remaining bytes before allocation, so arbitrary input fails
// cleanly instead of claiming memory.
func decodeBinaryMessage(payload []byte) (*Message, error) {
	m := new(Message)
	if err := (&bdec{b: payload}).messageInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// messageInto decodes the whole of d into m, overwriting what m held. The
// lists of ops and results and the Event that m, or an earlier frame's
// message, left behind are reused for the fields of this frame that carry
// them, so a connection's steady edit, ack and push traffic decodes into
// the same memory. Strings and ID lists are always new, copied out of the
// payload. A field the frame does not carry reads as nil, exactly as after
// a fresh decode; its storage stays parked on d for a later frame.
func (d *bdec) messageInto(m *Message) error {
	if m.Ops != nil {
		d.ops = m.Ops
	}
	if m.Results != nil {
		d.results = m.Results
	}
	if m.Event != nil {
		d.event = m.Event
	}
	*m = Message{}
	// A bad bitmap is the decoder's to reject; lending needs only its bits.
	bm, _ := binary.Uvarint(d.b[d.pos:])
	if bm&bitOps != 0 {
		m.Ops, d.ops = d.ops, nil
	}
	if bm&bitResults != 0 {
		m.Results, d.results = d.results, nil
	}
	if bm&bitEvent != 0 {
		m.Event, d.event = d.event, nil
	}
	if err := messageSchema.decode(d, m); err != nil {
		return err
	}
	if d.rem() != 0 {
		return fmt.Errorf("protocol: %d trailing bytes after message", d.rem())
	}
	return nil
}

// EncodeBinaryFrame renders m as one complete v3 binary frame (magic,
// length prefix, payload) — the exact bytes Send writes.
func EncodeBinaryFrame(m *Message) []byte {
	f, _ := renderFrame(nil, m)
	return f
}

// DecodeBinaryPayload unpacks the payload of one v3 frame (the bytes after
// the magic and length prefix). Exposed for tests and fuzzing.
func DecodeBinaryPayload(payload []byte) (*Message, error) {
	return decodeBinaryMessage(payload)
}
