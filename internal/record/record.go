// Package record defines typed tuples (rows), table schemas, and the binary
// encodings used to store rows in slotted pages and to build order-preserving
// index keys. It is the lowest layer of the storage manager's data model and
// has no dependencies on the rest of the engine.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Type is the type of a column or value.
type Type uint8

// Supported column types.
const (
	// TypeInt is a 64-bit signed integer.
	TypeInt Type = iota + 1
	// TypeFloat is a 64-bit IEEE float.
	TypeFloat
	// TypeString is a variable-length UTF-8 string.
	TypeString
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a dynamically typed column value. The zero Value is "null-ish"
// and has type 0; the engine does not support SQL NULL semantics beyond
// round-tripping the zero value.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{typ: TypeInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{typ: TypeFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{typ: TypeString, s: v} }

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// AsInt returns the integer payload (0 for non-integer values).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload; integer values are converted.
func (v Value) AsFloat() float64 {
	if v.typ == TypeInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload ("" for non-string values).
func (v Value) AsString() string { return v.s }

// Equal reports whether two values have the same type and payload.
func (v Value) Equal(o Value) bool { return v == o }

// GoString renders the value for debugging.
func (v Value) GoString() string {
	switch v.typ {
	case TypeInt:
		return fmt.Sprintf("%d", v.i)
	case TypeFloat:
		return fmt.Sprintf("%g", v.f)
	case TypeString:
		return fmt.Sprintf("%q", v.s)
	default:
		return "<nil>"
	}
}

// Compare orders two values of the same type: -1, 0, or +1. Values of
// different types order by type tag (stable but arbitrary), which lets mixed
// keys still sort deterministically.
func (v Value) Compare(o Value) int {
	if v.typ != o.typ {
		switch {
		case v.typ < o.typ:
			return -1
		default:
			return 1
		}
	}
	switch v.typ {
	case TypeInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case TypeFloat:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case TypeString:
		return strings.Compare(v.s, o.s)
	default:
		return 0
	}
}

// Row is one tuple.
type Row []Value

// Clone returns a copy of the row (values are immutable, so a shallow copy
// of the slice suffices, but the backing array is new).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one column of a table.
type Column struct {
	// Name is the column name, unique within the schema.
	Name string
	// Type is the column type.
	Type Type
}

// Schema describes the columns of a table.
type Schema struct {
	cols    []Column
	byName  map[string]int
	rowSize int // rough estimate, for free-space planning
}

// NewSchema builds a schema from the given columns. Column names must be
// unique and non-empty.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, errors.New("record: schema needs at least one column")
	}
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("record: column %d has empty name", i)
		}
		if c.Type != TypeInt && c.Type != TypeFloat && c.Type != TypeString {
			return nil, fmt.Errorf("record: column %q has invalid type %v", c.Name, c.Type)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("record: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
		switch c.Type {
		case TypeString:
			s.rowSize += 24
		default:
			s.rowSize += 9
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known benchmark and test schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Columns returns the schema's columns.
func (s *Schema) Columns() []Column { return s.cols }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// EstimatedRowSize returns a rough per-row byte estimate used for page
// free-space planning.
func (s *Schema) EstimatedRowSize() int { return s.rowSize }

// Validate checks that the row matches the schema's arity and column types.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.cols) {
		return fmt.Errorf("record: row has %d values, schema has %d columns", len(r), len(s.cols))
	}
	for i, v := range r {
		if v.typ != s.cols[i].Type {
			return fmt.Errorf("record: column %q expects %v, got %v", s.cols[i].Name, s.cols[i].Type, v.typ)
		}
	}
	return nil
}

// Encode serializes a row (which must match the schema) into a byte slice.
// The format is: for each column, a type tag byte followed by the payload
// (8-byte little-endian for ints and floats, uvarint length + bytes for
// strings).
func (s *Schema) Encode(r Row) ([]byte, error) {
	if err := s.Validate(r); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, s.rowSize)
	var scratch [binary.MaxVarintLen64]byte
	for _, v := range r {
		buf = append(buf, byte(v.typ))
		switch v.typ {
		case TypeInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.i))
		case TypeFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
		case TypeString:
			n := binary.PutUvarint(scratch[:], uint64(len(v.s)))
			buf = append(buf, scratch[:n]...)
			buf = append(buf, v.s...)
		}
	}
	return buf, nil
}

// walk checks that data encodes one row of s — tags match the column types,
// payloads fit, nothing trails — and passes fn each column's position, type
// and payload (an int's or a float's 8 bytes, a string's bytes). Decode and
// AppendKey both read rows through it, so they reject the same inputs.
func (s *Schema) walk(data []byte, fn func(col int, typ Type, payload []byte)) error {
	pos := 0
	for i := range s.cols {
		if pos >= len(data) {
			return fmt.Errorf("record: truncated row at column %d", i)
		}
		typ := Type(data[pos])
		pos++
		if typ != s.cols[i].Type {
			return fmt.Errorf("record: column %q encoded as %v, schema says %v", s.cols[i].Name, typ, s.cols[i].Type)
		}
		start := pos
		switch typ {
		case TypeInt:
			if pos+8 > len(data) {
				return errors.New("record: truncated int")
			}
			pos += 8
		case TypeFloat:
			if pos+8 > len(data) {
				return errors.New("record: truncated float")
			}
			pos += 8
		case TypeString:
			n, used := binary.Uvarint(data[pos:])
			if used <= 0 || n > uint64(len(data)-pos-used) {
				return errors.New("record: truncated string")
			}
			start = pos + used
			pos = start + int(n)
		default:
			return fmt.Errorf("record: unknown type tag %d", typ)
		}
		fn(i, typ, data[start:pos])
	}
	if pos != len(data) {
		return fmt.Errorf("record: %d trailing bytes after row", len(data)-pos)
	}
	return nil
}

// Decode deserializes a row previously produced by Encode with the same
// schema.
func (s *Schema) Decode(data []byte) (Row, error) {
	row := make(Row, len(s.cols))
	err := s.walk(data, func(col int, typ Type, p []byte) {
		switch typ {
		case TypeInt:
			row[col] = Int(int64(binary.LittleEndian.Uint64(p)))
		case TypeFloat:
			row[col] = Float(math.Float64frombits(binary.LittleEndian.Uint64(p)))
		default:
			row[col] = String(string(p))
		}
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// AppendKey appends EncodeKey of columns cols (in cols order) of the encoded
// row data to dst without building a Row. It checks data exactly as Decode
// does and fails with Decode's error, leaving dst unchanged.
func (s *Schema) AppendKey(dst, data []byte, cols []int) ([]byte, error) {
	var small [4][]byte
	payloads := small[:]
	if len(cols) > len(small) {
		payloads = make([][]byte, len(cols))
	}
	err := s.walk(data, func(col int, _ Type, p []byte) {
		for k, c := range cols {
			if c == col {
				payloads[k] = p
			}
		}
	})
	if err != nil {
		return dst, err
	}
	for k, c := range cols {
		typ, w := s.cols[c].Type, uint64(0)
		if typ != TypeString {
			w = binary.LittleEndian.Uint64(payloads[k]) // an int's or a float's bits
		}
		dst = appendKeyValue(dst, typ, w, payloads[k])
	}
	return dst, nil
}

// EncodeKey builds an order-preserving (memcomparable) byte-string key from
// the given values, suitable for B+tree indexes: comparing the resulting
// strings with < gives the same order as comparing the value tuples
// column-by-column with Value.Compare.
//
// Integers are encoded big-endian with the sign bit flipped; floats use the
// standard IEEE-754 total-order trick; strings are escaped so that embedded
// zero bytes cannot collide with the column terminator.
func EncodeKey(vals ...Value) string {
	var b []byte
	for _, v := range vals {
		w := uint64(v.i)
		if v.typ == TypeFloat {
			w = math.Float64bits(v.f)
		}
		b = appendKeyValue(b, v.typ, w, v.s)
	}
	return string(b)
}

// appendKeyValue appends the key encoding of one value of type typ: w holds
// an int's or a float's bits, s a string's bytes. The zero Value (typ 0)
// encodes as its tag alone.
func appendKeyValue[S string | []byte](b []byte, typ Type, w uint64, s S) []byte {
	b = append(b, byte(typ))
	switch typ {
	case TypeInt:
		return binary.BigEndian.AppendUint64(b, w^(1<<63))
	case TypeFloat: // a negative flips every bit, anything else just the sign
		return binary.BigEndian.AppendUint64(b, w^(uint64(int64(w)>>63)|1<<63))
	case TypeString:
		for i := 0; i < len(s); i++ {
			if c := s[i]; c == 0x00 {
				b = append(b, 0x00, 0xff)
			} else {
				b = append(b, c)
			}
		}
		return append(b, 0x00, 0x00)
	}
	return b
}
