package storage

import (
	"testing"
)

func TestNewTableValidates(t *testing.T) {
	good := Column{Name: "a", Kind: Int64, Ints: []int64{1, 2}}
	if _, err := NewTable("t", good); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}

	cases := []struct {
		name string
		tbl  func() (*Table, error)
	}{
		{"empty name", func() (*Table, error) { return NewTable("", good) }},
		{"no columns", func() (*Table, error) { return NewTable("t") }},
		{"duplicate columns", func() (*Table, error) {
			return NewTable("t", good, Column{Name: "a", Kind: Int64, Ints: []int64{3, 4}})
		}},
		{"ragged lengths", func() (*Table, error) {
			return NewTable("t", good, Column{Name: "b", Kind: Int64, Ints: []int64{1}})
		}},
		{"kind mismatch", func() (*Table, error) {
			return NewTable("t", Column{Name: "a", Kind: Float64, Ints: []int64{1}})
		}},
		{"bad null length", func() (*Table, error) {
			return NewTable("t", Column{Name: "a", Kind: Int64, Ints: []int64{1, 2}, Nulls: []bool{false}})
		}},
	}
	for _, c := range cases {
		if _, err := c.tbl(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestColumnAccessors(t *testing.T) {
	tbl := MustNewTable("t",
		Column{Name: "a", Kind: Int64, Ints: []int64{1, 2, 3}},
		Column{Name: "b", Kind: String, Strs: []string{"x", "y", "z"}},
	)
	if tbl.NumRows() != 3 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	if tbl.Column("b") == nil || tbl.Column("b").Strs[1] != "y" {
		t.Error("Column lookup failed")
	}
	if tbl.Column("zzz") != nil {
		t.Error("missing column should be nil")
	}
	if tbl.ColumnIndex("a") != 0 || tbl.ColumnIndex("b") != 1 || tbl.ColumnIndex("c") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if w := tbl.TupleWidth(); w != 8+16 {
		t.Errorf("tuple width = %d", w)
	}
}

func TestTypeWidthAndString(t *testing.T) {
	if Int64.Width() != 8 || Float64.Width() != 8 || String.Width() != 16 {
		t.Error("unexpected widths")
	}
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" || String.String() != "VARCHAR" {
		t.Error("unexpected type names")
	}
}

func TestIsNull(t *testing.T) {
	c := Column{Name: "x", Kind: Int64, Ints: []int64{1, 2}, Nulls: []bool{false, true}}
	if c.IsNull(0) || !c.IsNull(1) {
		t.Error("IsNull wrong")
	}
	noNulls := Column{Name: "y", Kind: Int64, Ints: []int64{1}}
	if noNulls.IsNull(0) {
		t.Error("nil null vector means not null")
	}
}

func TestDatabase(t *testing.T) {
	t1 := MustNewTable("a", Column{Name: "x", Kind: Int64, Ints: []int64{1}})
	t2 := MustNewTable("b", Column{Name: "x", Kind: Int64, Ints: []int64{1, 2}})
	db, err := NewDatabase("db", t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("a") != t1 || db.Table("c") != nil {
		t.Error("table lookup wrong")
	}
	if db.TotalRows() != 3 {
		t.Errorf("total rows = %d", db.TotalRows())
	}
	if err := db.AddTable(MustNewTable("c", Column{Name: "x", Kind: Int64, Ints: nil})); err != nil {
		t.Errorf("add table: %v", err)
	}
	if err := db.AddTable(t1); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := NewDatabase("db", t1, t1); err == nil {
		t.Error("duplicate tables at construction should fail")
	}
}
