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

// EncodeRow serialises row according to schema.
func EncodeRow(schema Schema, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchema, len(row), len(schema))
	}
	buf := make([]byte, 0, 128) // a character, op or document row fits
	for i, col := range schema {
		var err error
		if buf, err = appendField(buf, col, row[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendField appends the row-codec encoding of v, a value of col, to dst:
// 8 big-endian bytes for ints, floats and times (UnixNano), one byte for a
// bool, and a 4-byte length before the bytes of a string or byte slice.
func appendField(dst []byte, col Column, v interface{}) ([]byte, error) {
	switch col.Type {
	case TInt:
		x, ok := v.(int64)
		if !ok {
			return nil, typeErr(col, v)
		}
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case TFloat:
		x, ok := v.(float64)
		if !ok {
			return nil, typeErr(col, v)
		}
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case TString:
		x, ok := v.(string)
		if !ok {
			return nil, typeErr(col, v)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case TBytes:
		x, ok := v.([]byte)
		if !ok {
			return nil, typeErr(col, v)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...), nil
	case TBool:
		x, ok := v.(bool)
		if !ok {
			return nil, typeErr(col, v)
		}
		if x {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case TTime:
		x, ok := v.(time.Time)
		if !ok {
			return nil, typeErr(col, v)
		}
		return binary.BigEndian.AppendUint64(dst, uint64(x.UnixNano())), nil
	default:
		return nil, fmt.Errorf("db: unknown column type %v", col.Type)
	}
}

// field returns the encoding of column col within rec, a row EncodeRow
// wrote, without decoding any value: index maintenance compares and keys
// rows by these bytes. A record that ends before the column is ErrSchema.
func field(schema Schema, rec []byte, col int) ([]byte, error) {
	for i, c := range schema[:col+1] {
		var n uint64
		switch c.Type {
		case TInt, TFloat, TTime:
			n = 8
		case TBool:
			n = 1
		case TString, TBytes:
			if len(rec) < 4 {
				return nil, ErrSchema
			}
			n = 4 + uint64(binary.BigEndian.Uint32(rec))
		default:
			return nil, fmt.Errorf("db: unknown column type %v", c.Type)
		}
		if uint64(len(rec)) < n {
			return nil, ErrSchema
		}
		if i == col {
			return rec[:n], nil
		}
		rec = rec[n:]
	}
	return nil, ErrSchema
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

func typeErr(col Column, v interface{}) error {
	return fmt.Errorf("%w: column %q (%v) got %T", ErrSchema, col.Name, col.Type, v)
}
