package engine

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Schemas are value types: copying
// one is cheap and callers may mutate their copy freely.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from alternating name/type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Index returns the position of the named column (case-insensitive), or
// -1 if absent.
func (s Schema) Index(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// MustIndex is Index but returns an error naming the column.
func (s Schema) MustIndex(name string) (int, error) {
	if i := s.Index(name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("engine: no column %q in schema %v", name, s.Names())
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Equal reports whether two schemas have identical names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if !strings.EqualFold(s.Columns[i].Name, o.Columns[i].Name) || s.Columns[i].Type != o.Columns[i].Type {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INT, b STRING)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of values, positionally aligned with a Schema.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Relation is a materialised result set: a schema plus tuples. It is the
// lingua franca returned by island queries and consumed by CAST.
type Relation struct {
	Schema Schema
	Tuples []Tuple
}

// NewRelation allocates an empty relation with the given schema.
func NewRelation(s Schema) *Relation { return &Relation{Schema: s} }

// Append adds a tuple; it must match the schema arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema.Columns) {
		return fmt.Errorf("engine: tuple arity %d != schema arity %d", len(t), len(r.Schema.Columns))
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// Len returns the cardinality.
func (r *Relation) Len() int { return len(r.Tuples) }

// Column extracts the named column as a Value slice.
func (r *Relation) Column(name string) ([]Value, error) {
	idx, err := r.Schema.MustIndex(name)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t[idx]
	}
	return out, nil
}

// Floats extracts the named column coerced to float64.
func (r *Relation) Floats(name string) ([]float64, error) {
	idx, err := r.Schema.MustIndex(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t[idx].AsFloat()
	}
	return out, nil
}

// SortBy sorts tuples by the given column indexes ascending (stable).
func (r *Relation) SortBy(cols ...int) {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		for _, c := range cols {
			if cmp := Compare(r.Tuples[i][c], r.Tuples[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// String renders a bounded ASCII table (first 20 rows), for the shell and
// examples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Schema.Names(), " | "))
	b.WriteByte('\n')
	for i, t := range r.Tuples {
		if i == 20 {
			fmt.Fprintf(&b, "... (%d rows total)\n", len(r.Tuples))
			break
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// The binary wire format lives in binary.go (WriteBinary / ReadBinary,
// the server's response codec) and binary_batch.go (the columnar codec
// of the CAST pipe).
