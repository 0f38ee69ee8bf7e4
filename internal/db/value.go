// Package db implements the relational layer of the TeNDaX embedded
// database: typed tables stored in heap files over the buffer pool, with
// write-ahead logging, transactional mutation under strict two-phase
// locking, and B-tree secondary indexes rebuilt at open.
package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ColType is the type of a table column.
type ColType uint8

// Column types.
const (
	TInt ColType = iota + 1
	TFloat
	TString
	TBytes
	TBool
	TTime
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	case TBool:
		return "bool"
	case TTime:
		return "time"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns. By convention column 0 is the
// primary key and must have type TInt.
type Schema []Column

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Row is one table row: one value per schema column. Value dynamic types
// are int64, float64, string, []byte, bool and time.Time.
type Row []interface{}

// ErrSchema reports a row/schema mismatch.
var ErrSchema = errors.New("db: row does not match schema")

// errTrailing reports bytes after a row's last column.
var errTrailing = fmt.Errorf("%w: bytes after the last column", ErrSchema)

// rowBytes is the buffer a row is encoded into: a character, op or
// document row fits.
const rowBytes = 128

// EncodeRow serialises row according to schema.
func EncodeRow(schema Schema, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchema, len(row), len(schema))
	}
	buf := make([]byte, 0, rowBytes)
	for i, col := range schema {
		var err error
		if buf, err = appendField(buf, col, row[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendField appends the row-codec encoding of v, a value of col, to dst
// through the appender of col's type.
func appendField(dst []byte, col Column, v interface{}) ([]byte, error) {
	switch col.Type {
	case TInt:
		if x, ok := v.(int64); ok {
			return appendInt(dst, x), nil
		}
	case TFloat:
		if x, ok := v.(float64); ok {
			return appendFloat(dst, x), nil
		}
	case TString:
		if x, ok := v.(string); ok {
			return appendString(dst, x), nil
		}
	case TBytes:
		if x, ok := v.([]byte); ok {
			return appendBytes(dst, x), nil
		}
	case TBool:
		if x, ok := v.(bool); ok {
			return appendBool(dst, x), nil
		}
	case TTime:
		if x, ok := v.(time.Time); ok {
			return appendTime(dst, x), nil
		}
	default:
		return nil, fmt.Errorf("db: unknown column type %v", col.Type)
	}
	return nil, typeErr(col, fmt.Sprintf("%T", v))
}

// The per-type appenders are the row format: a zigzag varint for an int,
// a uvarint length before the bytes of a string or byte slice, one byte (0
// or 1) for a bool, and 8 big-endian bytes for a float or a time
// (UnixNano, which as a varint would take 9). Every value has one
// spelling: fieldLen refuses a varint with a redundant last byte and a
// bool byte above 1, so two encodings of a row are equal bytes exactly
// when their values are equal. EncodeRow and RowEncoder both write
// through these appenders; fieldLen, intOf and payload read what they
// write, for span, DecodeRow and appendKey.

func appendInt(dst []byte, x int64) []byte {
	return binary.AppendVarint(dst, x)
}

func appendFloat(dst []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
}

func appendString(dst []byte, x string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(x))), x...)
}

func appendBytes(dst, x []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(x))), x...)
}

func appendBool(dst []byte, x bool) []byte {
	if x {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendTime(dst []byte, x time.Time) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x.UnixNano()))
}

// RowEncoder writes rows of one table in EncodeRow's format, a column at a
// time, with no value boxed into a Row: the hot writers (one run row and
// one op row per keystroke batch) use it. Each method checks its column's
// type against the schema, as EncodeRow does; End reports the first
// mismatch, or a missing or extra column, as ErrSchema. Rows are appended
// one after another to one buffer, so a batch of rows costs one growing
// buffer rather than one allocation per row.
type RowEncoder struct {
	schema Schema
	buf    []byte
	start  int   // offset of the row being written
	col    int   // its next column
	err    error // its first mismatch
}

// next claims the row's next column for a value of type want (Go type
// name got) and reports whether it may be appended.
func (e *RowEncoder) next(want ColType, got string) bool {
	if e.err != nil {
		return false
	}
	if e.col >= len(e.schema) {
		e.err = fmt.Errorf("%w: more than %d values", ErrSchema, len(e.schema))
		return false
	}
	col := e.schema[e.col]
	e.col++
	if col.Type != want {
		e.err = typeErr(col, got)
		return false
	}
	return true
}

// Int appends an int column.
func (e *RowEncoder) Int(v int64) {
	if e.next(TInt, "int64") {
		e.buf = appendInt(e.buf, v)
	}
}

// String appends a string column.
func (e *RowEncoder) String(v string) {
	if e.next(TString, "string") {
		e.buf = appendString(e.buf, v)
	}
}

// Bytes appends a bytes column.
func (e *RowEncoder) Bytes(v []byte) {
	if e.next(TBytes, "[]uint8") {
		e.buf = appendBytes(e.buf, v)
	}
}

// Bool appends a bool column.
func (e *RowEncoder) Bool(v bool) {
	if e.next(TBool, "bool") {
		e.buf = appendBool(e.buf, v)
	}
}

// Time appends a time column.
func (e *RowEncoder) Time(v time.Time) {
	if e.next(TTime, "time.Time") {
		e.buf = appendTime(e.buf, v)
	}
}

// End finishes the row and returns its encoding, which later rows do not
// overwrite. A row with a mismatched value or too few or too many values
// is dropped and reported as ErrSchema. Either way the encoder is ready
// for the next row.
func (e *RowEncoder) End() ([]byte, error) {
	err := e.err
	if err == nil && e.col != len(e.schema) {
		err = fmt.Errorf("%w: %d values for %d columns", ErrSchema, e.col, len(e.schema))
	}
	rec := e.buf[e.start:len(e.buf):len(e.buf)]
	if err != nil {
		e.buf, rec = e.buf[:e.start], nil
	}
	e.start, e.col, e.err = len(e.buf), 0, nil
	return rec, err
}

// RowReader reads a record EncodeRow or a RowEncoder wrote a column at a
// time, with no value boxed into a Row: the mirror of RowEncoder, for hot
// readers. Each method checks its column's type against the schema and
// returns the zero value once a column has failed; End reports the first
// failure, or a missing or extra column, as ErrSchema. String and bytes
// columns are returned as slices of the record, not copies.
type RowReader struct {
	schema Schema
	rec    []byte // the columns not yet read
	col    int
	err    error
}

// next returns the encoding of the row's next column, which must be of
// type want (Go type name got), or nil once a column has failed.
func (r *RowReader) next(want ColType, got string) []byte {
	if r.err != nil {
		return nil
	}
	if r.col >= len(r.schema) {
		r.err = fmt.Errorf("%w: more than %d values", ErrSchema, len(r.schema))
		return nil
	}
	col := r.schema[r.col]
	r.col++
	if col.Type != want {
		r.err = typeErr(col, got)
		return nil
	}
	n, err := fieldLen(want, r.rec)
	if err != nil {
		r.err = err
		return nil
	}
	f := r.rec[:n]
	r.rec = r.rec[n:]
	return f
}

// Int reads an int column.
func (r *RowReader) Int() int64 {
	if f := r.next(TInt, "int64"); f != nil {
		return intOf(f)
	}
	return 0
}

// StringBytes reads a string column as its UTF-8 bytes.
func (r *RowReader) StringBytes() []byte { return payload(r.next(TString, "string")) }

// Bytes reads a bytes column.
func (r *RowReader) Bytes() []byte { return payload(r.next(TBytes, "[]uint8")) }

// Time reads a time column.
func (r *RowReader) Time() time.Time {
	if f := r.next(TTime, "time.Time"); f != nil {
		return time.Unix(0, int64(binary.BigEndian.Uint64(f))).UTC()
	}
	return time.Time{}
}

// End reports the first failed column, or a record with columns left
// unread or bytes after its last.
func (r *RowReader) End() error {
	switch {
	case r.err != nil:
		return r.err
	case r.col != len(r.schema):
		return fmt.Errorf("%w: %d values read of %d columns", ErrSchema, r.col, len(r.schema))
	case len(r.rec) != 0:
		return errTrailing
	}
	return nil
}

// field returns the encoding of column col within rec, a row EncodeRow
// wrote, without decoding any value: index maintenance compares and keys
// rows by these bytes. A record that ends before the column is ErrSchema.
func field(schema Schema, rec []byte, col int) ([]byte, error) {
	start, end, err := span(schema, rec, col)
	if err != nil {
		return nil, err
	}
	return rec[start:end], nil
}

// checkRecord verifies that rec is framed as one row of schema: every
// column is present, spelled once, and nothing follows the last. It is how
// the record-level writers refuse bytes that are not a row of their table.
func checkRecord(schema Schema, rec []byte) error {
	_, _, err := span(schema, rec, len(schema)-1)
	return err
}

// span returns the offsets of column col's encoding within rec. When col
// is the last column, bytes after it are ErrSchema.
func span(schema Schema, rec []byte, col int) (start, end int, err error) {
	for _, c := range schema[:col+1] {
		n, err := fieldLen(c.Type, rec[end:])
		if err != nil {
			return 0, 0, err
		}
		start, end = end, end+n
	}
	if col == len(schema)-1 && end != len(rec) {
		return 0, 0, errTrailing
	}
	return start, end, nil
}

// fieldLen returns the length of the encoding of a value of type t at the
// start of b. An encoding that overruns b or is not the value's one
// spelling is ErrSchema.
func fieldLen(t ColType, b []byte) (int, error) {
	switch t {
	case TInt:
		_, n := binary.Varint(b)
		return varintLen(b, n)
	case TFloat, TTime:
		if len(b) < 8 {
			return 0, ErrSchema
		}
		return 8, nil
	case TBool:
		if len(b) < 1 || b[0] > 1 {
			return 0, ErrSchema
		}
		return 1, nil
	case TString, TBytes:
		l, n := binary.Uvarint(b)
		n, err := varintLen(b, n)
		if err != nil {
			return 0, err
		}
		if l > uint64(len(b)-n) {
			return 0, ErrSchema
		}
		return n + int(l), nil
	default:
		return 0, fmt.Errorf("db: unknown column type %v", t)
	}
}

// varintLen checks n, what binary.Varint or binary.Uvarint read from the
// start of b: a truncated or overflowing varint, or one whose last byte
// adds nothing, is ErrSchema.
func varintLen(b []byte, n int) (int, error) {
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, ErrSchema
	}
	return n, nil
}

// intOf returns the value of f, an int column's encoding.
func intOf(f []byte) int64 {
	v, _ := binary.Varint(f)
	return v
}

// payload returns the bytes of f, a string or bytes column's encoding,
// after its length.
func payload(f []byte) []byte {
	_, n := binary.Uvarint(f)
	return f[n:]
}

// DecodeRow parses a row serialised by EncodeRow. Bytes that are not
// exactly one row of schema are ErrSchema.
func DecodeRow(schema Schema, data []byte) (Row, error) {
	row := make(Row, len(schema))
	for i, col := range schema {
		n, err := fieldLen(col.Type, data)
		if err != nil {
			return nil, err
		}
		f := data[:n]
		data = data[n:]
		switch col.Type {
		case TInt:
			row[i] = intOf(f)
		case TFloat:
			row[i] = math.Float64frombits(binary.BigEndian.Uint64(f))
		case TString:
			row[i] = string(payload(f))
		case TBytes:
			row[i] = append([]byte{}, payload(f)...)
		case TBool:
			row[i] = f[0] == 1
		case TTime:
			row[i] = time.Unix(0, int64(binary.BigEndian.Uint64(f))).UTC()
		}
	}
	if len(data) != 0 {
		return nil, errTrailing
	}
	return row, nil
}

// EncodeKey produces an order-preserving byte encoding of a single value,
// used as (a prefix of) B-tree index keys: for any two values of the same
// type, bytes.Compare(EncodeKey(a), EncodeKey(b)) orders like a vs b.
func EncodeKey(t ColType, v interface{}) ([]byte, error) {
	var tmp [16]byte
	f, err := appendField(tmp[:0], Column{Name: "key", Type: t}, v)
	if err != nil {
		return nil, err
	}
	return appendKey(nil, t, f), nil
}

// appendKey appends to dst the EncodeKey form of a value of type t, given
// f, the value's field encoding. An int's key is 8 big-endian bytes
// whatever its varint width, so keys order by value.
func appendKey(dst []byte, t ColType, f []byte) []byte {
	switch t {
	case TInt:
		return binary.BigEndian.AppendUint64(dst, uint64(intOf(f))^(1<<63)) // sign flip
	case TTime:
		return binary.BigEndian.AppendUint64(dst, binary.BigEndian.Uint64(f)^(1<<63))
	case TFloat:
		bits := binary.BigEndian.Uint64(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case TBool:
		if f[0] != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	default: // TString, TBytes: the bytes after the length
		return append(dst, payload(f)...)
	}
}

// EncodeSchema serialises a schema for the catalog.
func EncodeSchema(s Schema) []byte {
	buf := []byte{byte(len(s))}
	for _, c := range s {
		buf = append(buf, byte(c.Type), byte(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	return buf
}

// DecodeSchema parses a schema serialised by EncodeSchema.
func DecodeSchema(b []byte) (Schema, error) {
	if len(b) < 1 {
		return nil, errors.New("db: empty schema encoding")
	}
	n := int(b[0])
	b = b[1:]
	s := make(Schema, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, errors.New("db: truncated schema encoding")
		}
		t := ColType(b[0])
		l := int(b[1])
		b = b[2:]
		if len(b) < l {
			return nil, errors.New("db: truncated schema name")
		}
		s = append(s, Column{Name: string(b[:l]), Type: t})
		b = b[l:]
	}
	return s, nil
}

func typeErr(col Column, got string) error {
	return fmt.Errorf("%w: column %q (%v) got %s", ErrSchema, col.Name, col.Type, got)
}
