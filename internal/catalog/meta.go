package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slidb/internal/record"
)

// ErrBadMeta is returned when serialized table or index metadata cannot be
// decoded.
var ErrBadMeta = errors.New("catalog: corrupt metadata")

type metaEncoder struct{ buf []byte }

func (e *metaEncoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *metaEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type metaDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *metaDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = ErrBadMeta
		return 0
	}
	d.pos += n
	return v
}

func (d *metaDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if d.pos+int(n) > len(d.buf) {
		d.err = ErrBadMeta
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *metaDecoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMeta, len(d.buf)-d.pos)
	}
	return nil
}

// Encode serializes the table metadata to a compact binary form.
func (m TableMeta) Encode() []byte {
	var e metaEncoder
	e.uvarint(uint64(m.ID))
	e.str(m.Name)
	e.uvarint(uint64(len(m.Columns)))
	for _, c := range m.Columns {
		e.str(c.Name)
		e.uvarint(uint64(c.Type))
	}
	e.uvarint(uint64(len(m.PrimaryKey)))
	for _, col := range m.PrimaryKey {
		e.str(col)
	}
	return e.buf
}

// DecodeTableMeta parses metadata produced by TableMeta.Encode.
func DecodeTableMeta(data []byte) (TableMeta, error) {
	d := metaDecoder{buf: data}
	var m TableMeta
	m.ID = uint32(d.uvarint())
	m.Name = d.str()
	nCols := d.uvarint()
	for i := uint64(0); i < nCols && d.err == nil; i++ {
		name := d.str()
		typ := record.Type(d.uvarint())
		m.Columns = append(m.Columns, record.Column{Name: name, Type: typ})
	}
	nPK := d.uvarint()
	for i := uint64(0); i < nPK && d.err == nil; i++ {
		m.PrimaryKey = append(m.PrimaryKey, d.str())
	}
	if err := d.finish(); err != nil {
		return TableMeta{}, err
	}
	return m, nil
}

// Encode serializes the index metadata to a compact binary form.
func (m IndexMeta) Encode() []byte {
	var e metaEncoder
	e.str(m.Name)
	e.uvarint(uint64(m.TableID))
	e.uvarint(uint64(len(m.Columns)))
	for _, col := range m.Columns {
		e.str(col)
	}
	if m.Unique {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
	return e.buf
}

// DecodeIndexMeta parses metadata produced by IndexMeta.Encode.
func DecodeIndexMeta(data []byte) (IndexMeta, error) {
	d := metaDecoder{buf: data}
	var m IndexMeta
	m.Name = d.str()
	m.TableID = uint32(d.uvarint())
	nCols := d.uvarint()
	for i := uint64(0); i < nCols && d.err == nil; i++ {
		m.Columns = append(m.Columns, d.str())
	}
	m.Unique = d.uvarint() != 0
	if err := d.finish(); err != nil {
		return IndexMeta{}, err
	}
	return m, nil
}
