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

// The per-type appenders are the row format: 8 big-endian bytes for ints,
// floats and times (UnixNano), one byte for a bool, and a 4-byte length
// before the bytes of a string or byte slice. EncodeRow and RowEncoder
// both write through them.

func appendInt(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x))
}

func appendFloat(dst []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
}

func appendString(dst []byte, x string) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(x))), x...)
}

func appendBytes(dst, x []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(x))), x...)
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

// StringBytes appends a string column whose UTF-8 encoding is v, for a
// caller that assembles the text in a buffer of its own.
func (e *RowEncoder) StringBytes(v []byte) {
	if e.next(TString, "string") {
		e.buf = appendBytes(e.buf, v)
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
// column is present and nothing follows the last. It is how the
// record-level writers refuse bytes that are not a row of their table.
func checkRecord(schema Schema, rec []byte) error {
	_, end, err := span(schema, rec, len(schema)-1)
	if err == nil && end != len(rec) {
		err = fmt.Errorf("%w: %d bytes after the last column", ErrSchema, len(rec)-end)
	}
	return err
}

// span returns the offsets of column col's encoding within rec.
func span(schema Schema, rec []byte, col int) (start, end int, err error) {
	for i, c := range schema[:col+1] {
		var n uint64
		switch c.Type {
		case TInt, TFloat, TTime:
			n = 8
		case TBool:
			n = 1
		case TString, TBytes:
			if len(rec)-start < 4 {
				return 0, 0, ErrSchema
			}
			n = 4 + uint64(binary.BigEndian.Uint32(rec[start:]))
		default:
			return 0, 0, fmt.Errorf("db: unknown column type %v", c.Type)
		}
		if uint64(len(rec)-start) < n {
			return 0, 0, ErrSchema
		}
		if i == col {
			return start, start + int(n), nil
		}
		start += int(n)
	}
	return 0, 0, ErrSchema
}

// DecodeRow parses a row serialised by EncodeRow.
func DecodeRow(schema Schema, data []byte) (Row, error) {
	row := make(Row, len(schema))
	for i, col := range schema {
		switch col.Type {
		case TInt:
			if len(data) < 8 {
				return nil, ErrSchema
			}
			row[i] = int64(binary.BigEndian.Uint64(data))
			data = data[8:]
		case TFloat:
			if len(data) < 8 {
				return nil, ErrSchema
			}
			row[i] = math.Float64frombits(binary.BigEndian.Uint64(data))
			data = data[8:]
		case TString:
			if len(data) < 4 {
				return nil, ErrSchema
			}
			n := binary.BigEndian.Uint32(data)
			data = data[4:]
			if uint32(len(data)) < n {
				return nil, ErrSchema
			}
			row[i] = string(data[:n])
			data = data[n:]
		case TBytes:
			if len(data) < 4 {
				return nil, ErrSchema
			}
			n := binary.BigEndian.Uint32(data)
			data = data[4:]
			if uint32(len(data)) < n {
				return nil, ErrSchema
			}
			v := make([]byte, n)
			copy(v, data[:n])
			row[i] = v
			data = data[n:]
		case TBool:
			if len(data) < 1 {
				return nil, ErrSchema
			}
			row[i] = data[0] != 0
			data = data[1:]
		case TTime:
			if len(data) < 8 {
				return nil, ErrSchema
			}
			row[i] = time.Unix(0, int64(binary.BigEndian.Uint64(data))).UTC()
			data = data[8:]
		default:
			return nil, fmt.Errorf("db: unknown column type %v", col.Type)
		}
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
// f, the value's field encoding.
func appendKey(dst []byte, t ColType, f []byte) []byte {
	switch t {
	case TInt, TTime:
		return binary.BigEndian.AppendUint64(dst, binary.BigEndian.Uint64(f)^(1<<63)) // sign flip
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
		return append(dst, f[4:]...)
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
