package erp

import (
	"fmt"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// BSEGAttributes is the attribute count of the paper's BSEG table.
const BSEGAttributes = 345

// BSEGHotAttributes is the number of attributes the paper keeps as MRCs
// for the BSEG benchmarks (Figure 8: "20 MRC-attributes and 325
// attributes in an SSCG").
const BSEGHotAttributes = 20

// BSEGSchema returns a 345-attribute schema shaped like the BSEG
// accounting-document line-item table: document numbers and keys first
// (the hot attributes), followed by a long tail of amounts, flags and
// codes.
func BSEGSchema() *schema.Schema {
	fields := make([]schema.Field, BSEGAttributes)
	for i := range fields {
		switch {
		case i == 0:
			fields[i] = schema.Field{Name: "BELNR", Type: value.Int64} // document number
		case i == 1:
			fields[i] = schema.Field{Name: "BUKRS", Type: value.Int64} // company code
		case i == 2:
			fields[i] = schema.Field{Name: "GJAHR", Type: value.Int64} // fiscal year
		case i < BSEGHotAttributes:
			fields[i] = schema.Field{Name: fmt.Sprintf("KEY%02d", i), Type: value.Int64}
		case i%7 == 3:
			fields[i] = schema.Field{Name: fmt.Sprintf("TXT%03d", i), Type: value.String, Width: 16}
		case i%5 == 1:
			fields[i] = schema.Field{Name: fmt.Sprintf("AMT%03d", i), Type: value.Float64}
		default:
			fields[i] = schema.Field{Name: fmt.Sprintf("FLD%03d", i), Type: value.Int64}
		}
	}
	return schema.MustNew(fields)
}
