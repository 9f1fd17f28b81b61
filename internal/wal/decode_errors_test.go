package wal

import (
	"encoding/binary"
	"errors"
	"testing"

	"tierdb/internal/codec"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// TestDecodeErrorText pins the error each malformed record payload
// decodes to, one payload per failure: it is ErrBadRecord, with the
// text replay reports.
func TestDecodeErrorText(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown kind", []byte{99}, "wal: malformed record: unknown kind 99"},
		{"op kind", []byte{kindCommit, 7, 1, 2, 0, 0}, "wal: malformed record"},
		{"index column", binary.AppendUvarint([]byte{kindIndex, 1, 't', 1}, 1<<20+1), "wal: malformed record"},
		{"field type", []byte{kindCreateTable, 1, 't', 1, 0, byte(value.String) + 1, 0}, "wal: malformed record: unknown value type 3"},
		{"field width", codec.AppendFields([]byte{kindCreateTable, 1, 't'}, []schema.Field{{Width: codec.MaxFieldWidth + 1}}), "wal: malformed record: field width 16777217"},
		{"bool byte", []byte{kindLayout, 1, 't', 1, 2}, "wal: malformed record: bool byte 2"},
		{"trailing bytes", []byte{kindCheckpointEnd, 9, 0}, "wal: malformed record: 1 trailing bytes"},
		{"torn count", []byte{kindCommit, 7, 0xff}, "wal: malformed record"},
		{"oversized count", []byte{kindCommit, 7, 1, 0}, "wal: malformed record"},
		{"unknown value type", []byte{kindCommit, 7, 1, 0, 0, 1, 9}, "wal: malformed record"},
		{"empty payload", nil, "wal: malformed record"},
	} {
		if _, err := decodePayload(tc.payload); !errors.Is(err, ErrBadRecord) || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want ErrBadRecord reading %q", tc.name, err, tc.want)
		}
	}
}
