// Package client is the Go client of the tierdbd network service: a
// connection-pooled, pipelining speaker of the CRC-framed binary
// protocol in internal/server.
//
// Every pooled connection supports pipelining natively: requests from
// any number of goroutines are written back-to-back (serialized by a
// write mutex) and a single reader goroutine matches response frames to
// callers in FIFO order — the server guarantees responses in request
// order per connection. Calls are therefore safe for arbitrary
// concurrent use; concurrency beyond one connection's sequential
// service rate spreads round-robin across the pool.
//
// Admission-control rejections surface as errors matching
// server.ErrOverloaded (and server.ErrDraining during shutdown), so a
// closed-loop caller can back off and retry without parsing strings.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/explain"
	"tierdb/internal/metrics"
	"tierdb/internal/obsrv"
	"tierdb/internal/schema"
	"tierdb/internal/server"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// Config tunes a Client. The zero value of every field selects a
// default; only Addr is required.
type Config struct {
	// Addr is the tierdbd address (host:port).
	Addr string
	// PoolSize is the number of pooled connections; 0 selects
	// DefaultPoolSize.
	PoolSize int
	// DialTimeout bounds connection establishment; 0 selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// RequestTimeout bounds one request round-trip including its queue
	// time in the pipeline; 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxPipeline caps requests in flight on one connection; further
	// senders block (bounded, client-side). 0 selects
	// DefaultMaxPipeline.
	MaxPipeline int
	// Tracer enables client-side tracing: sampled requests get a
	// "client.send" span and carry their trace ID to the server in the
	// wire header, so the server's spans join the same /trace/{id}
	// tree. Nil disables tracing.
	Tracer *trace.Tracer
}

// Defaults for Config's zero values.
const (
	DefaultPoolSize       = 4
	DefaultDialTimeout    = 5 * time.Second
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxPipeline    = 64
)

// ErrClosed is returned by requests after Close.
var ErrClosed = errors.New("client: closed")

// Client is a pooled connection to one tierdbd instance. Safe for
// concurrent use.
type Client struct {
	cfg  Config
	next atomic.Uint64

	mu     sync.Mutex
	conns  []*conn // fixed length PoolSize; nil slots dial on demand
	closed bool
}

// Dial connects to a tierdbd instance, establishing (and verifying)
// one pooled connection eagerly so a bad address fails here rather
// than on the first request.
func Dial(cfg Config) (*Client, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxPipeline <= 0 {
		cfg.MaxPipeline = DefaultMaxPipeline
	}
	c := &Client{cfg: cfg, conns: make([]*conn, cfg.PoolSize)}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cn
	return c, nil
}

// Close tears down every pooled connection. In-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for i, cn := range c.conns {
		if cn != nil {
			cn.close(ErrClosed)
			c.conns[i] = nil
		}
	}
	return nil
}

func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &conn{
		nc:      nc,
		br:      bufio.NewReader(nc),
		bw:      bufio.NewWriter(nc),
		pending: make(chan chan result, c.cfg.MaxPipeline),
	}
	go cn.readLoop()
	return cn, nil
}

// pick returns a live connection round-robin, replacing dead slots.
func (c *Client) pick() (*conn, error) {
	slot := int(c.next.Add(1) % uint64(c.cfg.PoolSize))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	cn := c.conns[slot]
	if cn != nil && cn.alive() {
		return cn, nil
	}
	fresh, err := c.dial()
	if err != nil {
		return nil, err
	}
	if cn != nil {
		cn.close(errors.New("client: connection replaced"))
	}
	c.conns[slot] = fresh
	return fresh, nil
}

// do runs one request round-trip on a pooled connection, tracing it
// when the client has a sampling tracer configured.
func (c *Client) do(req server.Request) (server.Response, error) {
	span := c.startSpan(req)
	if span != nil {
		req.TraceID, req.SpanID = span.Trace, span.ID
	}
	resp, err := c.do1(req)
	c.finishSpan(span, resp, err)
	return resp, err
}

// do1 runs one request round-trip on a pooled connection.
func (c *Client) do1(req server.Request) (server.Response, error) {
	cn, err := c.pick()
	if err != nil {
		return server.Response{}, err
	}
	return cn.do(req, c.cfg.RequestTimeout)
}

// startSpan makes the client-side sampling decision for one request.
func (c *Client) startSpan(req server.Request) *trace.Span {
	if c.cfg.Tracer == nil {
		return nil
	}
	span := c.cfg.Tracer.Start("client.send", trace.String("op", server.OpName(req.Op)))
	if span != nil && req.Table != "" {
		span.SetAttr(trace.String("table", req.Table))
	}
	return span
}

// finishSpan completes a request's client span.
func (c *Client) finishSpan(span *trace.Span, resp server.Response, err error) {
	if span == nil {
		return
	}
	if err != nil {
		span.SetError(err)
	} else {
		span.SetAttr(trace.Int("rows", int64(len(resp.IDs))))
	}
	span.End()
}

// result is what the read loop delivers to a waiting caller.
type result struct {
	payload []byte
	err     error
}

// conn is one pipelined connection: writers serialize on wmu and
// enqueue a response slot; readLoop matches response frames to slots in
// FIFO order.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	wmu     sync.Mutex
	bw      *bufio.Writer
	pending chan chan result

	emu       sync.Mutex
	err       error
	closeOnce sync.Once
}

func (cn *conn) alive() bool {
	cn.emu.Lock()
	defer cn.emu.Unlock()
	return cn.err == nil
}

// close marks the connection dead with cause, fails every pending
// caller, and closes the socket.
func (cn *conn) close(cause error) {
	cn.emu.Lock()
	if cn.err == nil {
		cn.err = cause
	}
	cn.emu.Unlock()
	cn.closeOnce.Do(func() {
		cn.nc.Close()
		// readLoop's final sweep fails the pending queue. A sender
		// racing with the close may still enqueue after the sweep; its
		// subsequent write fails and do() returns the close cause
		// directly, so no caller is left waiting on an orphaned slot.
	})
}

// readLoop owns the read half: one response frame per pending slot, in
// order. On any read error it poisons the connection and fails all
// pending and late-arriving slots.
func (cn *conn) readLoop() {
	var cause error
	for {
		payload, err := readFrameClient(cn.br)
		if err != nil {
			if err == io.EOF {
				cause = io.ErrUnexpectedEOF
			} else {
				cause = err
			}
			break
		}
		select {
		case slot := <-cn.pending:
			slot <- result{payload: payload}
		default:
			// A frame nobody asked for: a session-admission reject
			// (the server sheds over-capacity connects with one typed
			// error frame) or a protocol bug. Either way the
			// connection is done; surface the typed error.
			if resp, err := decodeUnsolicited(payload); err == nil {
				cause = resp
			} else {
				cause = fmt.Errorf("%w: unsolicited frame", server.ErrProtocol)
			}
			goto out
		}
	}
out:
	cn.close(cause)
	// Drain slots that were enqueued before (or racing with) the
	// close; their frames will never arrive.
	for {
		select {
		case slot := <-cn.pending:
			slot <- result{err: cause}
		default:
			return
		}
	}
}

// readFrameClient mirrors the server-side frame reader.
func readFrameClient(br *bufio.Reader) ([]byte, error) {
	return server.ReadFrame(br)
}

// decodeUnsolicited interprets a frame received with no pending request
// as a connection-level error status.
func decodeUnsolicited(payload []byte) (error, error) {
	resp, err := server.DecodeBareResponse(payload)
	if err != nil {
		return nil, err
	}
	return statusError(resp), nil
}

// do writes one request and waits for its response slot; timeout bounds
// the whole exchange. The one timer is stopped on return: left to
// expire, each would stay reachable for the full timeout — tens of
// megabytes behind a connection answering 20 000 requests a second.
func (cn *conn) do(req server.Request, timeout time.Duration) (server.Response, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	slot := make(chan result, 1)
	cn.wmu.Lock()
	if !cn.alive() {
		cn.emu.Lock()
		err := cn.err
		cn.emu.Unlock()
		cn.wmu.Unlock()
		return server.Response{}, err
	}
	// Enqueue while still holding wmu so pending-queue order is always
	// identical to wire order — readLoop matches response frames to
	// slots strictly FIFO, and an enqueue outside the write lock would
	// let another caller's request reach the wire first. When the
	// pipeline is full this blocks other writers on this connection:
	// bounded backpressure, since slots drain at the connection's
	// service rate (and close's sweep empties the queue on failure).
	select {
	case cn.pending <- slot:
	case <-timer.C:
		cn.wmu.Unlock()
		return server.Response{}, fmt.Errorf("client: pipeline full for %s", timeout)
	}
	cn.nc.SetWriteDeadline(time.Now().Add(timeout))
	err := server.WriteRequest(cn.bw, req)
	if err == nil {
		err = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.close(fmt.Errorf("client: write: %w", err))
		// Fail fast with the close cause rather than waiting on the
		// slot: if the connection died concurrently, readLoop's final
		// sweep may have finished before our slot was enqueued, and
		// then nothing would ever deliver into it.
		cn.emu.Lock()
		cause := cn.err
		cn.emu.Unlock()
		return server.Response{}, cause
	}
	select {
	case res := <-slot:
		if res.err != nil {
			return server.Response{}, res.err
		}
		resp, err := server.DecodeResponse(req.Op, res.payload)
		if err != nil {
			cn.close(err)
			return server.Response{}, err
		}
		if resp.Status != server.StatusOK {
			return resp, statusError(resp)
		}
		return resp, nil
	case <-timer.C:
		// Leave the slot in the pipeline; the read loop delivers the
		// late response into the buffered channel, keeping FIFO
		// alignment for everyone else.
		return server.Response{}, fmt.Errorf("client: request timed out after %s", timeout)
	}
}

// statusError maps a non-OK response to a typed error.
func statusError(resp server.Response) error {
	switch resp.Status {
	case server.StatusOverloaded:
		return fmt.Errorf("%w: %s", server.ErrOverloaded, resp.Msg)
	case server.StatusDraining:
		return fmt.Errorf("%w: %s", server.ErrDraining, resp.Msg)
	case server.StatusBadRequest:
		return fmt.Errorf("%w: %s", server.ErrProtocol, resp.Msg)
	default:
		return errors.New(resp.Msg)
	}
}

// --- typed API ------------------------------------------------------

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.do(server.Request{Op: server.OpPing})
	return err
}

// CreateTable creates a table.
func (c *Client) CreateTable(table string, fields []schema.Field) error {
	_, err := c.do(server.Request{Op: server.OpCreateTable, Table: table, Fields: fields})
	return err
}

// Insert appends one row in its own transaction.
func (c *Client) Insert(table string, row []value.Value) error {
	_, err := c.do(server.Request{Op: server.OpInsert, Table: table, Row: row})
	return err
}

// Delete removes the row in its own transaction.
func (c *Client) Delete(table string, id uint64) error {
	_, err := c.do(server.Request{Op: server.OpDelete, Table: table, RowID: id})
	return err
}

// Update replaces the row in its own transaction.
func (c *Client) Update(table string, id uint64, row []value.Value) error {
	_, err := c.do(server.Request{Op: server.OpUpdate, Table: table, RowID: id, Row: row})
	return err
}

// BulkLoad appends rows as one atomic batch and merges them into the
// main partition.
func (c *Client) BulkLoad(table string, rows [][]value.Value) error {
	_, err := c.do(server.Request{Op: server.OpBulkLoad, Table: table, Rows: rows})
	return err
}

// Eq builds an equality predicate.
func Eq(column string, v value.Value) server.Predicate {
	return server.Predicate{Column: column, Op: server.PredEq, Value: v}
}

// Between builds an inclusive range predicate.
func Between(column string, lo, hi value.Value) server.Predicate {
	return server.Predicate{Column: column, Op: server.PredBetween, Value: lo, Hi: hi}
}

// Select runs a conjunctive filter query projecting the named columns.
func (c *Client) Select(table string, preds []server.Predicate, project ...string) (*server.Result, error) {
	resp, err := c.do(server.Request{Op: server.OpSelect, Table: table, Predicates: preds, Project: project})
	if err != nil {
		return nil, err
	}
	return &server.Result{IDs: resp.IDs, Rows: resp.Rows}, nil
}

// SelectTraced is Select returning the rendered query trace as well.
func (c *Client) SelectTraced(table string, preds []server.Predicate, project ...string) (*server.Result, string, error) {
	resp, err := c.do(server.Request{Op: server.OpSelect, Table: table, Predicates: preds, Project: project, Traced: true})
	if err != nil {
		return nil, "", err
	}
	return &server.Result{IDs: resp.IDs, Rows: resp.Rows}, resp.Trace, nil
}

// Checkpoint forces a durable checkpoint (an error without a WAL).
func (c *Client) Checkpoint() error {
	_, err := c.do(server.Request{Op: server.OpCheckpoint})
	return err
}

// Stats fetches the engine's metrics snapshot.
func (c *Client) Stats() (metrics.Snapshot, error) {
	resp, err := c.do(server.Request{Op: server.OpStats})
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(resp.Blob, &snap); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("client: parse stats: %w", err)
	}
	return snap, nil
}

// Rows returns the table's visible row count.
func (c *Client) Rows(table string) (int, error) {
	resp, err := c.do(server.Request{Op: server.OpRows, Table: table})
	if err != nil {
		return 0, err
	}
	return int(resp.Count), nil
}

// Tables lists the table names.
func (c *Client) Tables() ([]string, error) {
	resp, err := c.do(server.Request{Op: server.OpTables})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Advise runs the layout advisor on the table's captured workload.
func (c *Client) Advise(table string, q obsrv.AdvisorQuery) (*obsrv.AdvisorReport, error) {
	blob, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(server.Request{Op: server.OpAdvise, Table: table, Blob: blob})
	if err != nil {
		return nil, err
	}
	var rep obsrv.AdvisorReport
	if err := json.Unmarshal(resp.Blob, &rep); err != nil {
		return nil, fmt.Errorf("client: parse advisor report: %w", err)
	}
	return &rep, nil
}

// Explain asks the server for an EXPLAIN (analyze=false) or EXPLAIN
// ANALYZE (analyze=true) plan of the given query.
func (c *Client) Explain(table string, specs []explain.PredicateSpec, project []string, analyze bool) (*explain.Plan, error) {
	resp, err := c.do(server.Request{
		Op: server.OpExplain, Table: table,
		Specs: specs, Project: project, Analyze: analyze,
	})
	if err != nil {
		return nil, err
	}
	var plan explain.Plan
	if err := json.Unmarshal(resp.Blob, &plan); err != nil {
		return nil, fmt.Errorf("client: parse explain plan: %w", err)
	}
	return &plan, nil
}

// ApplyLayout applies a per-column DRAM residency layout.
func (c *Client) ApplyLayout(table string, inDRAM []bool) error {
	_, err := c.do(server.Request{Op: server.OpApplyLayout, Table: table, Layout: inDRAM})
	return err
}

// AdaptiveStatus reports the adaptive placement scheduler's state and
// last per-table decisions.
func (c *Client) AdaptiveStatus() (*obsrv.AdaptiveReport, error) {
	return c.adaptive(server.AdaptiveStatus)
}

// SetAdaptive turns the periodic adaptive placement loop on or off and
// returns the resulting state.
func (c *Client) SetAdaptive(enabled bool) (*obsrv.AdaptiveReport, error) {
	sub := byte(server.AdaptiveDisable)
	if enabled {
		sub = server.AdaptiveEnable
	}
	return c.adaptive(sub)
}

func (c *Client) adaptive(sub byte) (*obsrv.AdaptiveReport, error) {
	resp, err := c.do(server.Request{Op: server.OpAdaptive, Sub: sub})
	if err != nil {
		return nil, err
	}
	var rep obsrv.AdaptiveReport
	if err := json.Unmarshal(resp.Blob, &rep); err != nil {
		return nil, fmt.Errorf("client: parse adaptive report: %w", err)
	}
	return &rep, nil
}
