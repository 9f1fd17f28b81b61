// Package schema describes table schemas: ordered, typed fields with
// fixed widths for secondary-storage row slots. The width of a string
// field bounds its stored length (CHAR-style), matching the fixed-width
// attribute encoding of the enterprise tables the paper analyzes.
package schema

import (
	"fmt"

	"tierdb/internal/value"
)

// Field is one attribute of a table.
type Field struct {
	// Name is the attribute name (unique within a schema).
	Name string
	// Type is the attribute's value type.
	Type value.Type
	// Width is the fixed slot width in bytes for String fields;
	// ignored (8) for numeric fields.
	Width int
}

// SlotWidth returns the field's fixed-width slot size in bytes.
func (f Field) SlotWidth() int { return value.FixedWidth(f.Type, f.Width) }

// Schema is an ordered list of fields.
type Schema struct {
	fields []Field
	index  map[string]int
}

// New builds a schema, validating field names and widths.
func New(fields []Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("schema: no fields")
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("schema: field %d has empty name", i)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate field %q", f.Name)
		}
		if f.Type == value.String && f.Width <= 0 {
			return nil, fmt.Errorf("schema: string field %q needs positive width", f.Name)
		}
		idx[f.Name] = i
	}
	return &Schema{fields: fields, index: idx}, nil
}

// MustNew is New panicking on error; for statically known schemas.
func MustNew(fields []Field) *Schema {
	s, err := New(fields)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns field i.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of all fields.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// IndexOf returns the position of the named field, or -1.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// CheckRow validates that a row matches the schema's arity and types.
func (s *Schema) CheckRow(row []value.Value) error {
	if len(row) != len(s.fields) {
		return fmt.Errorf("schema: row has %d values, want %d", len(row), len(s.fields))
	}
	for i, v := range row {
		if v.Type() != s.fields[i].Type {
			return fmt.Errorf("schema: field %q: value type %s, want %s", s.fields[i].Name, v.Type(), s.fields[i].Type)
		}
	}
	return nil
}
