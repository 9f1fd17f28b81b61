// WAL record codec. Every record is framed as
//
//	uvarint(payload length) | crc32c(payload), 4 bytes LE | payload
//
// (codec.AppendFrameHeader, the header the wire protocol uses too), and
// the payload starts with a one-byte kind. Values are self-describing
// (type byte, then 8 fixed bytes for numerics or a uvarint-length
// string), consistent with persist's uvarint encoding; a create-table
// record's field list and a layout record's DRAM bits are codec's, the
// wire's encoding of the same two.
// The decoder works on a fully read segment and never trusts a length
// it cannot verify against the remaining input, so corrupt or torn
// input yields an error — never a panic or an unbounded allocation.
package wal

import (
	"encoding/binary"
	"errors"

	"tierdb/internal/codec"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
)

// Record kinds. A transaction commits as ONE atomic record carrying all
// of its redo ops: a torn tail can only drop whole transactions, which
// makes prefix consistency structural rather than something recovery
// has to reconstruct from interleaved per-op records.
const (
	kindCommit          = 1 // ts, ops[]
	kindCreateTable     = 2 // name, fields[]
	kindLayout          = 3 // name, per-column DRAM residency
	kindIndex           = 4 // name, key columns (len 1 = single-column)
	kindCheckpointEnd   = 5 // ts: snapshots ≤ ts are durable, log truncated
	kindCheckpointBegin = 6 // ts: a checkpoint at ts started (diagnostic)
)

// ErrBadRecord reports a record that is structurally invalid even
// though its CRC matched — only possible via an encoder bug or a
// deliberately corrupted log, so replay fails loudly instead of
// silently skipping it.
var ErrBadRecord = errors.New("wal: malformed record")

// Record is the decoded form of any WAL record; which fields are
// meaningful depends on Kind.
type Record struct {
	Kind   uint8
	Ts     uint64        // kindCommit, kindCheckpoint{Begin,End}
	Ops    []mvcc.RedoOp // kindCommit
	Table  string        // DDL kinds
	Fields []schema.Field
	Layout []bool
	Cols   []int
}

// encodePayload appends the record's payload (kind byte included).
func encodePayload(buf []byte, rec Record) []byte {
	buf = append(buf, rec.Kind)
	switch rec.Kind {
	case kindCommit:
		buf = binary.AppendUvarint(buf, rec.Ts)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
		for _, op := range rec.Ops {
			kind := byte(0)
			if op.Delete {
				kind = 1
			}
			buf = append(buf, kind)
			buf = codec.AppendString(buf, op.Table)
			buf = codec.AppendRow(buf, op.Row)
		}
	case kindCreateTable:
		buf = codec.AppendFields(codec.AppendString(buf, rec.Table), rec.Fields)
	case kindLayout:
		buf = codec.AppendBools(codec.AppendString(buf, rec.Table), rec.Layout)
	case kindIndex:
		buf = codec.AppendString(buf, rec.Table)
		buf = binary.AppendUvarint(buf, uint64(len(rec.Cols)))
		for _, c := range rec.Cols {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	case kindCheckpointEnd, kindCheckpointBegin:
		buf = binary.AppendUvarint(buf, rec.Ts)
	}
	return buf
}

// frameHeaderMax is the longest frame header: a 10-byte uvarint length
// and the CRC.
const frameHeaderMax = binary.MaxVarintLen64 + 4

// decodePayload decodes one record payload (as framed: kind byte first).
func decodePayload(payload []byte) (Record, error) {
	r := codec.NewReader(payload, ErrBadRecord)
	rec := Record{Kind: r.Byte()}
	switch rec.Kind {
	case kindCommit:
		rec.Ts = r.Uvarint()
		rec.Ops = make([]mvcc.RedoOp, r.Count(3)) // op kind + empty name + empty row
		for i := range rec.Ops {
			op := &rec.Ops[i]
			k := r.Byte()
			if k > 1 {
				r.Fail("")
			}
			op.Delete, op.Table, op.Row = k == 1, r.String(), r.Row()
		}
	case kindCreateTable:
		rec.Table, rec.Fields = r.String(), r.Fields()
	case kindLayout:
		rec.Table, rec.Layout = r.String(), r.Bools()
	case kindIndex:
		rec.Table = r.String()
		rec.Cols = make([]int, r.Count(1))
		for i := range rec.Cols {
			c := r.Uvarint()
			if c > 1<<20 {
				r.Fail("")
			}
			rec.Cols[i] = int(c)
		}
	case kindCheckpointEnd, kindCheckpointBegin:
		rec.Ts = r.Uvarint()
	default:
		r.Fail("unknown kind %d", rec.Kind)
	}
	if err := r.Done(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// decodeSegment decodes every complete, CRC-valid record in data.
// A frame that runs past the end of data or fails its CRC is treated
// as the torn tail: decoding stops and the byte offset of the torn
// frame is returned (tornAt == len(data) means the segment is clean).
// A record that is CRC-valid but structurally malformed is real
// corruption, not a tear, and fails the whole decode.
func decodeSegment(data []byte) (recs []Record, tornAt int, err error) {
	pos := 0
	for pos < len(data) {
		plen, n := binary.Uvarint(data[pos:])
		if n <= 0 || plen > uint64(len(data)-pos-n) {
			return recs, pos, nil // torn length prefix
		}
		hdr := pos + n
		if len(data)-hdr < 4 || plen > uint64(len(data)-hdr-4) {
			return recs, pos, nil // torn before/inside CRC or payload
		}
		crc := binary.LittleEndian.Uint32(data[hdr:])
		payload := data[hdr+4 : hdr+4+int(plen)]
		if codec.Checksum(payload) != crc {
			return recs, pos, nil // torn payload
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return nil, pos, err
		}
		recs = append(recs, rec)
		pos = hdr + 4 + int(plen)
	}
	return recs, pos, nil
}
