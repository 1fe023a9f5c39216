// Package catalog maintains the schema metadata of a database: tables,
// their schemas and primary keys, and secondary indexes. Table IDs issued by
// the catalog double as lock-hierarchy identifiers (lockmgr.TableLock) and
// buffer PageID table components.
package catalog

import (
	"fmt"
	"sync"

	"slidb/internal/record"
)

// Table describes one table.
type Table struct {
	// ID is the table's unique numeric identifier.
	ID uint32
	// Name is the table's unique name.
	Name string
	// Schema describes the table's columns.
	Schema *record.Schema
	// PrimaryKey lists the columns (by name) forming the primary key.
	PrimaryKey []string

	pkIdx []int
}

// PrimaryKeyIndexes returns the column positions of the primary key.
func (t *Table) PrimaryKeyIndexes() []int { return t.pkIdx }

// Index describes a secondary index.
type Index struct {
	// Name is the index's unique name.
	Name string
	// TableID is the indexed table.
	TableID uint32
	// Columns lists the indexed columns in order.
	Columns []string
	// Unique indicates whether duplicate keys are rejected.
	Unique bool

	colIdx []int
}

// ColumnIndexes returns the positions of the indexed columns in the table
// schema.
func (ix *Index) ColumnIndexes() []int { return ix.colIdx }

// Catalog is the database's schema registry. It is safe for concurrent use;
// DDL (table/index creation) is expected to be rare and coarse-grained.
type Catalog struct {
	mu          sync.RWMutex
	nextTableID uint32
	byName      map[string]*Table
	byID        map[uint32]*Table
	indexes     map[string]*Index   // by index name
	byTable     map[uint32][]*Index // indexes per table
}

// New creates an empty catalog. Table IDs start at 1; ID 0 is reserved.
func New() *Catalog {
	return &Catalog{
		nextTableID: 1,
		byName:      make(map[string]*Table),
		byID:        make(map[uint32]*Table),
		indexes:     make(map[string]*Index),
		byTable:     make(map[uint32][]*Index),
	}
}

// CreateTable registers a table and returns its descriptor. The primary-key
// columns must exist in the schema.
func (c *Catalog) CreateTable(name string, schema *record.Schema, primaryKey []string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if len(primaryKey) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs a primary key", name)
	}
	pkIdx := make([]int, len(primaryKey))
	for i, col := range primaryKey {
		idx := schema.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: primary key column %q not in schema of %q", col, name)
		}
		pkIdx[i] = idx
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byName[name]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		ID:         c.nextTableID,
		Name:       name,
		Schema:     schema,
		PrimaryKey: append([]string(nil), primaryKey...),
		pkIdx:      pkIdx,
	}
	c.nextTableID++
	c.byName[name] = t
	c.byID[t.ID] = t
	return t, nil
}

// CreateIndex registers a secondary index on an existing table.
func (c *Catalog) CreateIndex(name, tableName string, columns []string, unique bool) (*Index, error) {
	if name == "" || len(columns) == 0 {
		return nil, fmt.Errorf("catalog: index needs a name and at least one column")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.byName[tableName]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", tableName)
	}
	if _, exists := c.indexes[name]; exists {
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	colIdx := make([]int, len(columns))
	for i, col := range columns {
		idx := t.Schema.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: column %q not in table %q", col, tableName)
		}
		colIdx[i] = idx
	}
	ix := &Index{
		Name:    name,
		TableID: t.ID,
		Columns: append([]string(nil), columns...),
		Unique:  unique,
		colIdx:  colIdx,
	}
	c.indexes[name] = ix
	c.byTable[t.ID] = append(c.byTable[t.ID], ix)
	return ix, nil
}

// Table returns the table with the given name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byName[name]
	return t, ok
}

// TableByID returns the table with the given ID.
func (c *Catalog) TableByID(id uint32) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byID[id]
	return t, ok
}

// Tables returns all tables, in creation order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.byID))
	for id := uint32(1); id < c.nextTableID; id++ {
		if t, ok := c.byID[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

// Index returns the index with the given name.
func (c *Catalog) Index(name string) (*Index, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[name]
	return ix, ok
}

// TableIndexes returns the secondary indexes of a table.
func (c *Catalog) TableIndexes(tableID uint32) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Index(nil), c.byTable[tableID]...)
}
