// Wire protocol of the tierdbd network service. Every message —
// request and response alike — travels as one frame:
//
//	uvarint(payload length) | crc32c(payload), 4 bytes LE | payload
//
// (codec.AppendFrameHeader), the same framing the write-ahead log uses
// on disk, for the same reason: a receiver can always tell a truncated
// or bit-flipped frame from a valid one before it interprets a single
// payload byte. Request payloads start with a one-byte opcode, response
// payloads with a one-byte status. Values are self-describing (type
// byte, then 8 fixed bytes for numerics or a uvarint-length string),
// consistent with the WAL and persist codecs.
//
// The decoder never trusts a length it cannot verify against the
// remaining input: hostile input yields ErrProtocol — never a panic and
// never an unbounded allocation. Frame-level damage (bad CRC, oversize,
// torn frame) poisons the stream and the session must close; a
// payload-level decode error inside a CRC-valid frame leaves the stream
// aligned, so the session can answer StatusBadRequest and continue.
//
// The wire carries operations that change state or return rows, counts
// and names. Reports — metrics, advice, EXPLAIN plans, the adaptive
// scheduler's status — are JSON and travel over the observability
// server's HTTP endpoints only. Opcodes 9, 12 and 16 are retired: they
// decode as unknown, and are not to be reused, so a peer still sending
// them gets StatusBadRequest rather than another operation.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"tierdb/internal/codec"
	"tierdb/internal/schema"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// MaxFrame bounds a frame payload (requests and responses). Frames
// claiming more are rejected before any allocation happens.
const MaxFrame = 64 << 20

// Request opcodes.
const (
	OpPing        = 1  // -> empty
	OpCreateTable = 2  // name, fields[] -> empty
	OpInsert      = 3  // table, row -> empty
	OpDelete      = 4  // table, rowID -> empty
	OpUpdate      = 5  // table, rowID, row -> empty
	OpBulkLoad    = 6  // table, rows[][] -> empty
	OpSelect      = 7  // table, predicates[], projection[] -> ids, rows
	OpCheckpoint  = 8  // -> empty
	OpRows        = 10 // table -> count
	OpTables      = 11 // -> names[]
	OpApplyLayout = 13 // table, inDRAM[] -> empty
	OpAdaptive    = 14 // AdaptiveEnable or AdaptiveDisable -> empty

	// OpTraced is not an operation: it is the optional trace-header
	// envelope. Its payload is
	//
	//	[OpTraced][uvarint TraceID][uvarint parent SpanID][inner request payload]
	//
	// where the inner payload is any ordinary request (opcode first).
	// Framing is untouched and the envelope is optional: a client
	// without a tracer (or an unsampled request) sends the bare inner
	// payload, byte-identical to an untraced request.
	OpTraced = 15
)

// OpAdaptive subcommands.
const (
	AdaptiveEnable  = 1 // turn the periodic loop on
	AdaptiveDisable = 2 // turn the periodic loop off
)

// Response status codes. Everything except StatusOK carries a message
// string as the body.
const (
	StatusOK         = 0
	StatusEngineErr  = 1 // the engine rejected the operation
	StatusOverloaded = 2 // admission control shed the request
	StatusBadRequest = 3 // CRC-valid frame, malformed or invalid payload
	StatusDraining   = 4 // server is shutting down
)

// Predicate operators on the wire.
const (
	PredEq      = 0
	PredBetween = 1
)

// ErrProtocol reports a violation of the wire protocol: a torn or
// oversized frame, a CRC mismatch, or a payload that does not decode.
// It is the only error the codec ever produces for hostile input.
var ErrProtocol = errors.New("server: protocol error")

// ErrOverloaded is returned (by the client) and signalled (by the
// server) when admission control sheds a request or session instead of
// queuing it unboundedly. Callers should back off and retry.
var ErrOverloaded = errors.New("server: overloaded")

// ErrDraining is signalled for requests that arrive while the server is
// shutting down gracefully.
var ErrDraining = errors.New("server: draining")

// Predicate is one conjunctive filter of a network query. Columns are
// addressed by name; Op is PredEq or PredBetween.
type Predicate struct {
	Column string
	Op     byte
	Value  value.Value
	Hi     value.Value // PredBetween upper bound
}

// Result carries a query answer: qualifying row ids and, when a
// projection was requested, the projected rows. In a Result the client
// returns, the rows' strings share one allocation, a copy of the reply:
// keeping one value keeps that reply's bytes, as one row of an
// executor result keeps its arena.
type Result struct {
	IDs  []uint64
	Rows [][]value.Value
}

// Request is the decoded form of any request frame; which fields are
// meaningful depends on Op.
type Request struct {
	Op         byte
	Table      string
	Fields     []schema.Field  // OpCreateTable
	Row        []value.Value   // OpInsert, OpUpdate
	Rows       [][]value.Value // OpBulkLoad
	RowID      uint64          // OpDelete, OpUpdate
	Predicates []Predicate     // OpSelect
	Project    []string        // OpSelect
	Layout     []bool          // OpApplyLayout
	Sub        byte            // OpAdaptive subcommand

	// TraceID and SpanID are the optional trace header (the OpTraced
	// envelope): the originating trace and the sender's span, which
	// the server's span will link to as its parent. TraceID 0 means
	// untraced — the envelope is omitted on the wire.
	TraceID trace.TraceID
	SpanID  trace.SpanID
}

// Response is the decoded form of any response frame; which fields are
// meaningful depends on the request's Op and on Status. Decoded by
// DecodeResponse, its strings share one copy of the payload, so
// keeping any one of them keeps the whole reply's bytes.
type Response struct {
	Status byte
	Msg    string // non-OK statuses
	IDs    []uint64
	Rows   [][]value.Value
	Names  []string
	Count  uint64
}

// --- encoding -------------------------------------------------------

// encodeRequest appends the request payload (opcode byte first). A
// nonzero TraceID prefixes the payload with the OpTraced envelope.
func encodeRequest(buf []byte, req Request) []byte {
	if req.TraceID != 0 {
		buf = append(buf, OpTraced)
		buf = binary.AppendUvarint(buf, uint64(req.TraceID))
		buf = binary.AppendUvarint(buf, uint64(req.SpanID))
	}
	buf = append(buf, req.Op)
	if namesTable(req.Op) {
		buf = codec.AppendString(buf, req.Table)
	}
	switch req.Op {
	case OpCreateTable:
		buf = codec.AppendFields(buf, req.Fields)
	case OpInsert:
		buf = codec.AppendRow(buf, req.Row)
	case OpDelete:
		buf = binary.AppendUvarint(buf, req.RowID)
	case OpUpdate:
		buf = binary.AppendUvarint(buf, req.RowID)
		buf = codec.AppendRow(buf, req.Row)
	case OpBulkLoad:
		buf = binary.AppendUvarint(buf, uint64(len(req.Rows)))
		for _, row := range req.Rows {
			buf = codec.AppendRow(buf, row)
		}
	case OpSelect:
		buf = binary.AppendUvarint(buf, uint64(len(req.Predicates)))
		for _, p := range req.Predicates {
			buf = codec.AppendString(buf, p.Column)
			buf = append(buf, p.Op)
			buf = codec.AppendValue(buf, p.Value)
			if p.Op == PredBetween {
				buf = codec.AppendValue(buf, p.Hi)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(req.Project)))
		for _, name := range req.Project {
			buf = codec.AppendString(buf, name)
		}
	case OpApplyLayout:
		buf = codec.AppendBools(buf, req.Layout)
	case OpAdaptive:
		buf = append(buf, req.Sub)
	}
	return buf
}

// encodeResponse appends the response payload (status byte first). The
// response body layout is keyed by the request opcode it answers.
func encodeResponse(buf []byte, op byte, resp Response) []byte {
	buf = append(buf, resp.Status)
	if resp.Status != StatusOK {
		return codec.AppendString(buf, resp.Msg)
	}
	switch op {
	case OpSelect:
		buf = binary.AppendUvarint(buf, uint64(len(resp.IDs)))
		for _, id := range resp.IDs {
			buf = binary.AppendUvarint(buf, id)
		}
		buf = binary.AppendUvarint(buf, uint64(len(resp.Rows)))
		for _, row := range resp.Rows {
			buf = codec.AppendRow(buf, row)
		}
	case OpRows:
		buf = binary.AppendUvarint(buf, resp.Count)
	case OpTables:
		buf = binary.AppendUvarint(buf, uint64(len(resp.Names)))
		for _, n := range resp.Names {
			buf = codec.AppendString(buf, n)
		}
	}
	return buf
}

// frameStep is the least a frame's payload buffer grows by while the
// payload arrives.
const frameStep = 4 << 10

// writeFrame writes one payload's header, then the payload. A
// bufio.Writer's free buffer holds the header, so a frame written there
// allocates nothing.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		hdr = bw.AvailableBuffer()
	}
	if _, err := w.Write(codec.AppendFrameHeader(hdr, payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteRequest frames and writes one request payload.
func WriteRequest(w io.Writer, req Request) error {
	return writeFrame(w, encodeRequest(make([]byte, 0, 64), req))
}

// WriteResponse frames and writes one response for the given request
// opcode. It is exported so alternative server implementations (and
// protocol tests) can answer clients without reimplementing the codec.
func WriteResponse(w io.Writer, op byte, resp Response) error {
	return writeFrame(w, encodeResponse(make([]byte, 0, 64), op, resp))
}

// ReadFrame reads one frame and returns its CRC-verified payload. A
// clean EOF at a frame boundary returns io.EOF; anything torn,
// oversized or corrupt returns ErrProtocol. The stream must be
// considered poisoned after any non-EOF error.
func ReadFrame(br *bufio.Reader) ([]byte, error) { return readFrame(br, nil) }

// readFrame is ReadFrame reading the payload into buf's array. A
// payload that does not fit grows the array only as its bytes arrive,
// by at most as many as have arrived: a header that claims MaxFrame and
// then stops costs frameStep bytes, not MaxFrame — the codec's rule
// that no allocation is larger than the input backs.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: frame length: %w", ErrProtocol, err)
	}
	if plen > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrProtocol, plen, MaxFrame)
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: frame CRC: %w", ErrProtocol, err)
	}
	crc := binary.LittleEndian.Uint32(hdr)
	_, _ = br.Discard(4) // cannot fail: Peek buffered the 4 bytes
	n, payload := int(plen), buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), max(len(payload), frameStep)))
		}
		got, err := io.ReadFull(br, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			return nil, fmt.Errorf("%w: torn frame: %w", ErrProtocol, err)
		}
	}
	if codec.Checksum(payload) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrProtocol)
	}
	return payload, nil
}

// Stream is one end of a connection's frame stream: a server session's
// or a client connection's. It reads frames into a buffer it keeps and
// encodes them in another, and lets go of either once it has grown past
// codec.MaxKeptBuffer, so in its steady state a connection allocates
// nothing per frame. A payload Read returns is valid until the next
// Read: decoding copies whatever outlives it.
type Stream struct {
	r       *bufio.Reader
	w       *bufio.Writer
	in, out []byte
}

// NewStream buffers both directions of rw.
func NewStream(rw io.ReadWriter) *Stream {
	return &Stream{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// Read reads the next frame as ReadFrame does, into the kept buffer.
func (s *Stream) Read() ([]byte, error) {
	payload, err := readFrame(s.r, s.in)
	if err == nil {
		s.in = kept(payload)
	}
	return payload, err
}

// WriteRequest frames, writes and flushes one request.
func (s *Stream) WriteRequest(req Request) error {
	return s.write(encodeRequest(s.out[:0], req))
}

// WriteResponse frames, writes and flushes one response for the given
// request opcode.
func (s *Stream) WriteResponse(op byte, resp Response) error {
	return s.write(encodeResponse(s.out[:0], op, resp))
}

// write writes payload, encoded in the kept buffer, as one frame and
// flushes it.
func (s *Stream) write(payload []byte) error {
	s.out = kept(payload)
	if err := writeFrame(s.w, payload); err != nil {
		return err
	}
	return s.w.Flush()
}

// kept is buf, or nil once buf has grown past codec.MaxKeptBuffer.
func kept(buf []byte) []byte {
	if cap(buf) > codec.MaxKeptBuffer {
		return nil
	}
	return buf
}

// --- decoding -------------------------------------------------------

// namesTable reports whether a request of opcode op names its table
// first: every operation but ping, checkpoint, tables and adaptive.
func namesTable(op byte) bool {
	switch op {
	case OpCreateTable, OpInsert, OpDelete, OpUpdate, OpBulkLoad, OpSelect, OpRows, OpApplyLayout:
		return true
	}
	return false
}

// maxNames bounds the table and column names one session interns.
const maxNames = 256

// name reads a table or column name. A name in names is returned as
// its interned copy, with no allocation; a new one is copied and, while
// names (which may be nil) has room, interned.
func name(r *codec.Reader, names map[string]string) string {
	b := r.LenBytes()
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if names != nil && len(names) < maxNames {
		names[s] = s
	}
	return s
}

// decodeRequest decodes one request payload (as framed: opcode first),
// interning its table and column names in names. Every string it
// returns is a copy: none aliases payload.
func decodeRequest(payload []byte, names map[string]string) (Request, error) {
	r := codec.NewReader(payload, ErrProtocol)
	req := Request{Op: r.Byte()}
	if req.Op == OpTraced {
		id := r.Uvarint()
		if id == 0 {
			r.Fail("zero trace id in header")
		}
		req.TraceID, req.SpanID = trace.TraceID(id), trace.SpanID(r.Uvarint())
		if req.Op = r.Byte(); req.Op == OpTraced {
			r.Fail("nested trace header")
		}
	}
	if namesTable(req.Op) {
		req.Table = name(r, names)
	}
	switch req.Op {
	case OpPing, OpCheckpoint, OpTables, OpRows:
		// no body past the table name
	case OpCreateTable:
		req.Fields = r.Fields()
	case OpInsert:
		req.Row = r.Row()
	case OpDelete:
		req.RowID = r.Uvarint()
	case OpUpdate:
		req.RowID, req.Row = r.Uvarint(), r.Row()
	case OpBulkLoad:
		req.Rows = r.Rows(r.Count(1))
	case OpSelect:
		req.Predicates = make([]Predicate, r.Count(3)) // empty column + op + value type
		for i := range req.Predicates {
			p := &req.Predicates[i]
			p.Column, p.Op = name(r, names), r.Byte()
			if p.Op != PredEq && p.Op != PredBetween {
				r.Fail("unknown predicate op %d", p.Op)
			}
			if p.Value = r.Value(); p.Op == PredBetween {
				p.Hi = r.Value()
			}
		}
		req.Project = make([]string, r.Count(1))
		for i := range req.Project {
			req.Project[i] = name(r, names)
		}
	case OpApplyLayout:
		req.Layout = r.Bools()
	case OpAdaptive:
		if req.Sub = r.Byte(); req.Sub != AdaptiveEnable && req.Sub != AdaptiveDisable {
			r.Fail("unknown adaptive subcommand %d", req.Sub)
		}
	default:
		r.Fail("unknown opcode %d", req.Op)
	}
	if err := r.Done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// DecodeResponse decodes one response payload for the given request
// opcode (as framed: status first). The response's strings — its
// message, cells and names — are substrings of one copy of payload, so
// keeping any one of them keeps that copy.
func DecodeResponse(op byte, payload []byte) (Response, error) {
	return decodeResponse(op, codec.NewSharedReader(payload, ErrProtocol))
}

// decodeResponse decodes a response payload from r.
func decodeResponse(op byte, r *codec.Reader) (Response, error) {
	resp := Response{Status: r.Byte()}
	switch {
	case resp.Status > StatusDraining:
		r.Fail("unknown status %d", resp.Status)
	case resp.Status != StatusOK:
		resp.Msg = r.String()
	case op == OpSelect:
		resp.IDs = make([]uint64, r.Count(1))
		for i := range resp.IDs {
			resp.IDs[i] = r.Uvarint()
		}
		resp.Rows = r.Rows(r.Count(1))
	case op == OpRows:
		resp.Count = r.Uvarint()
	case op == OpTables:
		resp.Names = make([]string, r.Count(1))
		for i := range resp.Names {
			resp.Names[i] = r.String()
		}
	}
	if err := r.Done(); err != nil {
		return Response{}, err
	}
	return resp, nil
}
