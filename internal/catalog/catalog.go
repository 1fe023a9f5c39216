// Package catalog describes a database's schema: the descriptors of tables,
// with their schemas and primary keys, and of secondary indexes, and the
// binary form the write-ahead log's DDL records and checkpoint files store
// them in. It keeps no registry; the engine that holds the descriptors
// decides which names and IDs are taken. Table IDs double as
// lock-hierarchy identifiers (lockmgr.TableLock) and buffer PageID table
// components.
package catalog

import (
	"fmt"
	"slices"

	"slidb/internal/record"
)

// TableMeta is the serializable description of a table. The ID is included
// so recovered tables keep the identifiers that data log records reference.
type TableMeta struct {
	ID         uint32
	Name       string
	Columns    []record.Column
	PrimaryKey []string
}

// IndexMeta is the serializable description of a secondary index.
type IndexMeta struct {
	Name    string
	TableID uint32
	Columns []string
	Unique  bool
}

// Table describes one table: its metadata, the schema built from it and the
// positions of its primary-key columns.
type Table struct {
	TableMeta
	// Schema describes the table's columns.
	Schema *record.Schema

	pkIdx []int
}

// PrimaryKeyIndexes returns the column positions of the primary key.
func (t *Table) PrimaryKeyIndexes() []int { return t.pkIdx }

// Index describes a secondary index: its metadata and the positions of the
// indexed columns in the table schema.
type Index struct {
	IndexMeta

	colIdx []int
}

// ColumnIndexes returns the positions of the indexed columns in the table
// schema.
func (ix *Index) ColumnIndexes() []int { return ix.colIdx }

// NewTable validates m and returns the table it describes. ID 0 is
// reserved; the name must be non-empty, the columns must form a schema and
// the primary-key columns must be among them.
func NewTable(m TableMeta) (*Table, error) {
	if m.Name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if m.ID == 0 {
		return nil, fmt.Errorf("catalog: table %q has reserved ID 0", m.Name)
	}
	schema, err := record.NewSchema(m.Columns...)
	if err != nil {
		return nil, fmt.Errorf("catalog: table %q: %w", m.Name, err)
	}
	if len(m.PrimaryKey) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs a primary key", m.Name)
	}
	pkIdx := make([]int, len(m.PrimaryKey))
	for i, col := range m.PrimaryKey {
		if pkIdx[i] = schema.ColumnIndex(col); pkIdx[i] < 0 {
			return nil, fmt.Errorf("catalog: primary key column %q not in schema of %q", col, m.Name)
		}
	}
	m.Columns, m.PrimaryKey = schema.Columns(), slices.Clone(m.PrimaryKey)
	return &Table{TableMeta: m, Schema: schema, pkIdx: pkIdx}, nil
}

// NewIndex validates m against the table t it indexes and returns the index
// it describes. It needs a name and at least one column, and every column
// must be in t's schema.
func NewIndex(m IndexMeta, t *Table) (*Index, error) {
	if m.Name == "" || len(m.Columns) == 0 {
		return nil, fmt.Errorf("catalog: index needs a name and at least one column")
	}
	colIdx := make([]int, len(m.Columns))
	for i, col := range m.Columns {
		if colIdx[i] = t.Schema.ColumnIndex(col); colIdx[i] < 0 {
			return nil, fmt.Errorf("catalog: column %q not in table %q", col, t.Name)
		}
	}
	m.Columns = slices.Clone(m.Columns)
	return &Index{IndexMeta: m, colIdx: colIdx}, nil
}
