package schema

import (
	"testing"

	"tierdb/internal/value"
)

func testFields() []Field {
	return []Field{
		{Name: "id", Type: value.Int64},
		{Name: "name", Type: value.String, Width: 16},
		{Name: "amount", Type: value.Float64},
	}
}

func TestNewAndAccessors(t *testing.T) {
	s, err := New(testFields())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Field(1).Name != "name" {
		t.Errorf("Field(1) = %q", s.Field(1).Name)
	}
	if s.IndexOf("amount") != 2 {
		t.Errorf("IndexOf(amount) = %d", s.IndexOf("amount"))
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf(missing) != -1")
	}
	fields := s.Fields()
	fields[0].Name = "mutated"
	if s.Field(0).Name != "id" {
		t.Error("Fields() exposed internal slice")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := New([]Field{{Name: "", Type: value.Int64}}); err == nil {
		t.Error("empty field name accepted")
	}
	if _, err := New([]Field{{Name: "a", Type: value.Int64}, {Name: "a", Type: value.Int64}}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := New([]Field{{Name: "s", Type: value.String, Width: 0}}); err == nil {
		t.Error("zero-width string accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(nil)
}

func TestSlotWidth(t *testing.T) {
	if (Field{Type: value.Int64}).SlotWidth() != 8 {
		t.Error("int slot width")
	}
	if (Field{Type: value.String, Width: 20}).SlotWidth() != 20 {
		t.Error("string slot width")
	}
}

func TestCheckRow(t *testing.T) {
	s := MustNew(testFields())
	good := []value.Value{value.NewInt(1), value.NewString("x"), value.NewFloat(2.5)}
	if err := s.CheckRow(good); err != nil {
		t.Errorf("CheckRow(good) = %v", err)
	}
	if err := s.CheckRow(good[:2]); err == nil {
		t.Error("short row accepted")
	}
	bad := []value.Value{value.NewInt(1), value.NewInt(2), value.NewFloat(2.5)}
	if err := s.CheckRow(bad); err == nil {
		t.Error("type-mismatched row accepted")
	}
}
