// Package storage provides the in-memory columnar storage layer of the
// engine. Tables are stored column-wise; each column holds a single typed
// vector for the whole relation. The execution engine (internal/engine/exec)
// reads these vectors in fixed-size batches.
//
// The storage layer is deliberately simple: it is the substrate on which
// queries are *actually executed* so that T3 can be trained on measured
// wall-clock times, mirroring how the paper trains on times measured in
// Umbra.
package storage

import "fmt"

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// Int64 is a 64-bit signed integer column. Dates are stored as Int64
	// days-since-epoch.
	Int64 Type = iota
	// Float64 is a double-precision floating point column.
	Float64
	// String is a variable-length string column.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Width returns the width in bytes that one value of this type occupies in
// materialized state. Strings are accounted with a fixed estimate of their
// average payload plus pointer overhead; the feature extractor only needs a
// consistent notion of tuple size, not exact allocation sizes.
func (t Type) Width() int {
	switch t {
	case Int64, Float64:
		return 8
	case String:
		return 16
	default:
		return 8
	}
}

// Column is a single named, typed vector. Exactly one of the data slices is
// populated, matching Kind. A nil Nulls slice means the column contains no
// NULLs.
type Column struct {
	Name  string
	Kind  Type
	Ints  []int64
	Flts  []float64
	Strs  []string
	Nulls []bool
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Flts)
	case String:
		return len(c.Strs)
	default:
		return 0
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.Nulls != nil && c.Nulls[i]
}

// Validate checks internal consistency of the column.
func (c *Column) Validate() error {
	n := c.Len()
	populated := 0
	if c.Ints != nil {
		populated++
		if c.Kind != Int64 {
			return fmt.Errorf("column %q: Ints populated but kind is %s", c.Name, c.Kind)
		}
	}
	if c.Flts != nil {
		populated++
		if c.Kind != Float64 {
			return fmt.Errorf("column %q: Flts populated but kind is %s", c.Name, c.Kind)
		}
	}
	if c.Strs != nil {
		populated++
		if c.Kind != String {
			return fmt.Errorf("column %q: Strs populated but kind is %s", c.Name, c.Kind)
		}
	}
	if populated > 1 {
		return fmt.Errorf("column %q: multiple data vectors populated", c.Name)
	}
	if c.Nulls != nil && len(c.Nulls) != n {
		return fmt.Errorf("column %q: null vector length %d != %d rows", c.Name, len(c.Nulls), n)
	}
	return nil
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []Column

	byName map[string]int
}

// NewTable creates a table from columns, validating that all columns have
// equal length and unique names.
func NewTable(name string, cols ...Column) (*Table, error) {
	t := &Table{Name: name, Columns: cols}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.buildIndex()
	return t, nil
}

// MustNewTable is NewTable that panics on error; intended for tests and
// generators with statically-known shapes.
func MustNewTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) buildIndex() {
	t.byName = make(map[string]int, len(t.Columns))
	for i := range t.Columns {
		t.byName[t.Columns[i].Name] = i
	}
}

// Validate checks that the table is internally consistent.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("table has empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("table %q has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	n := t.Columns[0].Len()
	for i := range t.Columns {
		c := &t.Columns[i]
		if err := c.Validate(); err != nil {
			return fmt.Errorf("table %q: %w", t.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("table %q: duplicate column %q", t.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Len() != n {
			return fmt.Errorf("table %q: column %q has %d rows, expected %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) *Column {
	if t.byName == nil {
		t.buildIndex()
	}
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return &t.Columns[i]
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if t.byName == nil {
		t.buildIndex()
	}
	i, ok := t.byName[name]
	if !ok {
		return -1
	}
	return i
}

// TupleWidth returns the total width in bytes of one row across all columns.
func (t *Table) TupleWidth() int {
	w := 0
	for i := range t.Columns {
		w += t.Columns[i].Kind.Width()
	}
	return w
}

// Database is a named collection of tables: one "database instance" in the
// paper's terminology.
type Database struct {
	Name   string
	Tables []*Table

	byName map[string]int
}

// NewDatabase creates a database from tables with unique names.
func NewDatabase(name string, tables ...*Table) (*Database, error) {
	db := &Database{Name: name, Tables: tables}
	db.byName = make(map[string]int, len(tables))
	for i, tb := range tables {
		if _, dup := db.byName[tb.Name]; dup {
			return nil, fmt.Errorf("database %q: duplicate table %q", name, tb.Name)
		}
		db.byName[tb.Name] = i
	}
	return db, nil
}

// MustNewDatabase is NewDatabase that panics on error.
func MustNewDatabase(name string, tables ...*Table) *Database {
	db, err := NewDatabase(name, tables...)
	if err != nil {
		panic(err)
	}
	return db
}

// AddTable appends a table, rejecting duplicate names.
func (db *Database) AddTable(t *Table) error {
	if db.byName == nil {
		db.byName = make(map[string]int)
	}
	if _, dup := db.byName[t.Name]; dup {
		return fmt.Errorf("database %q: duplicate table %q", db.Name, t.Name)
	}
	db.byName[t.Name] = len(db.Tables)
	db.Tables = append(db.Tables, t)
	return nil
}

// Table returns the named table, or nil if absent.
func (db *Database) Table(name string) *Table {
	i, ok := db.byName[name]
	if !ok {
		return nil
	}
	return db.Tables[i]
}

// TotalRows returns the sum of row counts over all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.NumRows()
	}
	return n
}
