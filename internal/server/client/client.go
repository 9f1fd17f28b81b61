// Package client is the Go client of the tierdbd network service: a
// connection pool speaking the CRC-framed binary protocol in
// internal/server, one request per connection at a time.
//
// A request checks a connection out of the pool, writes its frame,
// reads its reply on the calling goroutine and puts the connection
// back. Nothing else is in flight on that connection meanwhile, so the
// reply needs no id, one caller's scan never delays another caller's
// insert beyond the wait for a free connection, and the client runs no
// goroutine of its own. Calls are safe for arbitrary concurrent use;
// callers beyond PoolSize wait for a connection, bounded by
// RequestTimeout.
//
// A connection whose exchange failed — I/O error, timeout, undecodable
// reply — is closed and its slot redials on next use: a late reply can
// never be taken for the next request's. The failed request is not
// retried, because the server may have applied it.
//
// Admission-control rejections surface as errors matching
// server.ErrOverloaded (and server.ErrDraining during shutdown), so a
// closed-loop caller can back off and retry without parsing strings.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	// PoolSize is the most connections the client holds, and so the
	// most requests it has in flight; 0 selects DefaultPoolSize.
	PoolSize int
	// DialTimeout bounds connection establishment; 0 selects
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// RequestTimeout bounds one request: its wait for a free
	// connection, then the write and the reply under one deadline. 0
	// selects DefaultRequestTimeout.
	RequestTimeout time.Duration
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
)

// maxIdle is how long a connection may sit in the pool and still be
// used; one that has sat longer is replaced at checkout. The server
// closes a session idle for server.DefaultReadTimeout, and maxIdle is
// well under that, so an idle client's next request does not run into
// the server's close.
const maxIdle = server.DefaultReadTimeout / 5

// ErrClosed is returned by requests after Close.
var ErrClosed = errors.New("client: closed")

// Client is a pool of connections to one tierdbd instance. Safe for
// concurrent use.
type Client struct {
	cfg Config
	// free holds the PoolSize connection slots no request is using; a
	// request owns the slot it receives until it sends it back.
	free   chan *conn
	closed atomic.Bool

	mu    sync.Mutex // orders Close with every write of a slot's nc
	slots []*conn
}

// conn is one pool slot. Only the request holding the slot reads or
// writes it, except that Close closes nc under Client.mu.
type conn struct {
	nc       net.Conn // nil: dial on next use
	st       *server.Stream
	admitted bool      // nc has carried a reply only an admitted session gets
	idle     time.Time // when the slot was last put back
}

// Dial connects to a tierdbd instance, establishing one pooled
// connection eagerly so a bad address fails here rather than on the
// first request.
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
	c := &Client{cfg: cfg, free: make(chan *conn, cfg.PoolSize)}
	for i := 0; i < cfg.PoolSize; i++ {
		cn := &conn{}
		c.slots = append(c.slots, cn)
		c.free <- cn
	}
	cn := <-c.free
	defer c.checkin(cn)
	if err := c.connect(cn); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes every connection, including those with a request in
// flight, which fails with ErrClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.slots {
		if cn.nc != nil {
			cn.nc.Close()
		}
	}
	return nil
}

// connect gives the slot a fresh connection.
func (c *Client) connect(cn *conn) error {
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		nc.Close()
		return ErrClosed
	}
	cn.nc, cn.st, cn.admitted = nc, server.NewStream(nc), false
	return nil
}

// drop closes the slot's connection, so the slot redials on next use,
// and names the client's Close as the cause when that is what broke
// the exchange.
func (c *Client) drop(cn *conn, cause error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cn.nc != nil {
		cn.nc.Close()
		cn.nc = nil
	}
	if c.closed.Load() {
		return ErrClosed
	}
	return cause
}

// checkout takes a free slot, waiting until deadline for one.
func (c *Client) checkout(deadline time.Time) (*conn, error) {
	select {
	case cn := <-c.free:
		return cn, nil
	default:
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case cn := <-c.free:
		return cn, nil
	case <-timer.C:
		return nil, fmt.Errorf("client: no free connection among %d for %s", c.cfg.PoolSize, c.cfg.RequestTimeout)
	}
}

// checkin puts a slot back, stamped for the idle check.
func (c *Client) checkin(cn *conn) {
	cn.idle = time.Now()
	c.free <- cn
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

// do1 runs one request round-trip on a connection it alone holds for
// the duration.
func (c *Client) do1(req server.Request) (server.Response, error) {
	if c.closed.Load() {
		return server.Response{}, ErrClosed
	}
	start := time.Now()
	deadline := start.Add(c.cfg.RequestTimeout)
	cn, err := c.checkout(deadline)
	if err != nil {
		return server.Response{}, err
	}
	defer c.checkin(cn)
	if cn.nc != nil && start.Sub(cn.idle) > maxIdle {
		c.drop(cn, nil)
	}
	if cn.nc == nil {
		if err := c.connect(cn); err != nil {
			return server.Response{}, err
		}
	}
	resp, err := cn.exchange(req, deadline)
	if err != nil {
		return server.Response{}, c.drop(cn, err)
	}
	switch {
	case resp.Status == server.StatusOK:
		cn.admitted = true
		return resp, nil
	case resp.Status == server.StatusDraining, resp.Status == server.StatusOverloaded && !cn.admitted:
		// The server closes a session after telling it it is draining,
		// and sheds a connection over its session cap with one
		// overloaded frame, which is then the first reply read here.
		c.drop(cn, nil)
	}
	return resp, statusError(resp)
}

// exchange writes one request and reads its reply. Any error leaves
// the stream in an unknown state: the caller must drop the connection.
func (cn *conn) exchange(req server.Request, deadline time.Time) (server.Response, error) {
	cn.nc.SetDeadline(deadline)
	err := cn.st.WriteRequest(req)
	payload, rerr := cn.st.Read()
	if err != nil {
		// A server that shed this connection said why before closing
		// it; that frame, if it is there, explains the refused write.
		if rerr == nil {
			if resp, derr := server.DecodeResponse(req.Op, payload); derr == nil && resp.Status != server.StatusOK {
				return resp, nil
			}
		}
		return server.Response{}, fmt.Errorf("client: write: %w", err)
	}
	if rerr == io.EOF {
		rerr = io.ErrUnexpectedEOF
	}
	if rerr != nil {
		return server.Response{}, fmt.Errorf("client: read: %w", rerr)
	}
	return server.DecodeResponse(req.Op, payload)
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
// The result's rows share one value array and its strings one copy of
// the reply, so keeping one value keeps the reply's bytes; nothing in it
// aliases the connection's buffers.
func (c *Client) Select(table string, preds []server.Predicate, project ...string) (*server.Result, error) {
	resp, err := c.do(server.Request{Op: server.OpSelect, Table: table, Predicates: preds, Project: project})
	if err != nil {
		return nil, err
	}
	return &server.Result{IDs: resp.IDs, Rows: resp.Rows}, nil
}

// Checkpoint forces a durable checkpoint (an error without a WAL).
func (c *Client) Checkpoint() error {
	_, err := c.do(server.Request{Op: server.OpCheckpoint})
	return err
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

// ApplyLayout applies a per-column DRAM residency layout.
func (c *Client) ApplyLayout(table string, inDRAM []bool) error {
	_, err := c.do(server.Request{Op: server.OpApplyLayout, Table: table, Layout: inDRAM})
	return err
}

// SetAdaptive turns the periodic adaptive placement loop on or off. The
// scheduler's report is served by the observability server's
// /layout/adaptive endpoint.
func (c *Client) SetAdaptive(enabled bool) error {
	sub := byte(server.AdaptiveDisable)
	if enabled {
		sub = server.AdaptiveEnable
	}
	_, err := c.do(server.Request{Op: server.OpAdaptive, Sub: sub})
	return err
}
