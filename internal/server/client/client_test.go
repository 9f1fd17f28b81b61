package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/server"
	"tierdb/internal/value"
)

// echoEngine answers Rows for table "t<n>" with n, so a reply handed to
// the wrong caller is detected, and counts Inserts, each of which first
// waits for gate to close when there is one. The embedded nil Engine
// panics on any other call; no test makes one.
type echoEngine struct {
	server.Engine
	gate    chan struct{}
	entered chan struct{} // one send per Insert that has reached the gate
	inserts atomic.Int64
}

func (e *echoEngine) Rows(table string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(table, "t%d", &n); err != nil {
		return 0, err
	}
	return n, nil
}

func (e *echoEngine) Insert(context.Context, string, []value.Value) error {
	if e.gate != nil {
		e.entered <- struct{}{}
		<-e.gate
	}
	e.inserts.Add(1)
	return nil
}

// Select answers table "t<n>" with echoRows("t<n>").
func (e *echoEngine) Select(_ context.Context, table string, _ []server.Predicate, _ []string) (*server.Result, error) {
	return &server.Result{IDs: []uint64{0, 1, 2}, Rows: echoRows(table)}, nil
}

// echoRows are three rows of strings naming table.
func echoRows(table string) [][]value.Value {
	rows := make([][]value.Value, 3)
	for i := range rows {
		rows[i] = []value.Value{value.NewString(fmt.Sprintf("%s row %d", table, i)), value.NewString(table)}
	}
	return rows
}

func gated() *echoEngine {
	return &echoEngine{gate: make(chan struct{}), entered: make(chan struct{}, 8)}
}

// boot serves e on l (a fresh loopback port when l is nil) until the
// test ends.
func boot(t *testing.T, e server.Engine, cfg server.Config, l net.Listener) (*server.Server, string) {
	t.Helper()
	if l == nil {
		var err error
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(e, cfg)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown() })
	return srv, l.Addr().String()
}

func dial(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// echo asks for the row count of table "t<n>" and checks the reply is
// the one for this call.
func echo(c *Client, n int) error {
	got, err := c.Rows(fmt.Sprintf("t%d", n))
	if err == nil && got != n {
		err = fmt.Errorf("asked about t%d, got the reply for t%d", n, got)
	}
	return err
}

func sessions(reg *metrics.Registry) metrics.GaugeSnapshot {
	return reg.Snapshot().Gauges["server.sessions"]
}

// waitFor polls cond; the events waited on are the server noticing a
// closed socket or an expired read deadline, which nothing signals.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientReplyStringsOutliveConnection: a reply's strings share a
// copy of its payload, never the connection's read buffer, so each
// caller's result keeps its strings while the one pooled connection
// serves 100 more replies with other strings into that buffer.
func TestClientReplyStringsOutliveConnection(t *testing.T) {
	_, addr := boot(t, &echoEngine{}, server.Config{}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 1})
	const callers, later = 8, 100
	selectAll := func(from, n int) []*server.Result {
		results := make([]*server.Result, n)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := c.Select(fmt.Sprintf("t%d", from+i), nil, "s")
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}(i)
		}
		wg.Wait()
		return results
	}
	first := selectAll(0, callers)
	selectAll(callers, later)
	for i, res := range first {
		if want := echoRows(fmt.Sprintf("t%d", i)); res != nil && !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("caller %d: rows %v after %d more replies, want %v", i, res.Rows, later, want)
		}
	}
}

// TestClientCheckoutPool: callers far outnumbering connections each get
// their own reply, and the client never holds more than PoolSize
// connections.
func TestClientCheckoutPool(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := boot(t, &echoEngine{}, server.Config{Registry: reg}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 3})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := echo(c, g*20+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := sessions(reg); s.Max != 3 {
		t.Errorf("server saw at most %d sessions from a PoolSize 3 client, want 3", s.Max)
	}
}

// TestClientTimeoutDropsConnection: a request that times out returns
// the timeout, and its connection — on which the reply arrives late —
// is never used again.
func TestClientTimeoutDropsConnection(t *testing.T) {
	e := gated()
	_, addr := boot(t, e, server.Config{}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 1, RequestTimeout: 100 * time.Millisecond})
	timedOut := c.slots[0].nc
	err := c.Insert("t", nil)
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("gated insert: err = %v, want an i/o timeout", err)
	}
	close(e.gate)
	waitFor(t, "the late insert", func() bool { return e.inserts.Load() == 1 })
	if err := echo(c, 1); err != nil {
		t.Fatalf("request after a timeout: %v", err)
	}
	if c.slots[0].nc == timedOut {
		t.Fatal("the connection that timed out was reused")
	}
}

// TestClientCheckoutWaitBounded: with every connection busy a request
// waits RequestTimeout for one, no longer, and its error says that is
// what it waited for.
func TestClientCheckoutWaitBounded(t *testing.T) {
	_, addr := boot(t, &echoEngine{}, server.Config{}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 1, RequestTimeout: 50 * time.Millisecond})
	busy := <-c.free
	start := time.Now()
	err := c.Ping()
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Errorf("waited %s for a connection, RequestTimeout is 50ms", waited)
	}
	if err == nil || !strings.Contains(err.Error(), "no free connection") {
		t.Fatalf("err = %v, want it to name the wait for a free connection", err)
	}
	c.free <- busy
	if err := c.Ping(); err != nil {
		t.Fatalf("ping once a connection is free: %v", err)
	}
}

// TestClientClose: Close fails the request in flight with ErrClosed,
// later requests too, and may be called twice.
func TestClientClose(t *testing.T) {
	e := gated()
	_, addr := boot(t, e, server.Config{DrainTimeout: 100 * time.Millisecond}, nil)
	t.Cleanup(func() { close(e.gate) }) // before Shutdown waits on the insert
	c := dial(t, Config{Addr: addr, PoolSize: 2})
	inflight := make(chan error, 1)
	go func() { inflight <- c.Insert("t", nil) }()
	<-e.entered
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-inflight; !errors.Is(err, ErrClosed) {
		t.Errorf("in-flight request: err = %v, want ErrClosed", err)
	}
	for i := 0; i < 3; i++ { // a used slot, a never-dialled one, and again
		if err := c.Ping(); !errors.Is(err, ErrClosed) {
			t.Errorf("request %d after Close: err = %v, want ErrClosed", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestClientServerRestart: after the server restarts on the same
// address, each pooled connection fails one request with an I/O error —
// not retried, since a write may have been applied — and then redials.
func TestClientServerRestart(t *testing.T) {
	srv, addr := boot(t, &echoEngine{}, server.Config{}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 2})
	for i := 0; i < 2; i++ { // slots are used in turn: both now connected
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	e := &echoEngine{}
	boot(t, e, server.Config{}, l)
	for i := 0; i < 2; i++ {
		err := c.Insert("t", nil)
		var op *net.OpError
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &op) {
			t.Errorf("first request on stale connection %d: err = %v, want an I/O error", i, err)
		}
	}
	if n := e.inserts.Load(); n != 0 {
		t.Fatalf("%d failed inserts reached the restarted server: they were retried", n)
	}
	for i := 0; i < 2; i++ {
		if err := c.Insert("t", nil); err != nil {
			t.Errorf("request %d after the stale ones: %v", i, err)
		}
	}
	if n := e.inserts.Load(); n != 2 {
		t.Errorf("restarted server applied %d inserts, want 2", n)
	}
}

// TestClientStartsNoGoroutine: with Dial and 1000 requests behind it,
// no goroutine but this one is in the client package.
func TestClientStartsNoGoroutine(t *testing.T) {
	_, addr := boot(t, &echoEngine{}, server.Config{}, nil)
	c := dial(t, Config{Addr: addr})
	for i := 0; i < 1000; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	for _, g := range stacks[1:] { // the first is the caller's own
		// A frame is a line that starts with its function's name; the
		// "created by" line of the server this test booted is not one.
		if strings.Contains("\n"+g, "\ntierdb/internal/server/client.") {
			t.Errorf("goroutine in package client:\n%s", g)
		}
	}
}

// TestClientIdleConnectionReplaced: a connection that has sat in the
// pool past maxIdle is replaced at checkout, so the request after a
// long pause does not meet the server's idle close.
func TestClientIdleConnectionReplaced(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := boot(t, &echoEngine{}, server.Config{Registry: reg, ReadTimeout: 20 * time.Millisecond}, nil)
	c := dial(t, Config{Addr: addr, PoolSize: 1})
	waitFor(t, "the server's idle close", func() bool { s := sessions(reg); return s.Max == 1 && s.Value == 0 })
	cn := <-c.free
	stale := cn.nc
	cn.idle = time.Now().Add(-maxIdle - time.Second)
	c.free <- cn
	if err := c.Ping(); err != nil {
		t.Fatalf("request after an idle period: %v", err)
	}
	if c.slots[0].nc == stale {
		t.Fatal("the idle connection was not replaced")
	}
}

// TestClientShedConnectionRedials: a connection shed at the session cap
// reports ErrOverloaded on its first request — also one so large that
// the closed socket refuses the write — and is dropped with it, so the
// request after capacity frees meets a new session, not that socket.
func TestClientShedConnectionRedials(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := boot(t, &echoEngine{}, server.Config{Registry: reg, MaxSessions: 1}, nil)
	c1 := dial(t, Config{Addr: addr, PoolSize: 1})
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, Config{Addr: addr, PoolSize: 1})
	if err := c2.Ping(); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("shed connection: err = %v, want ErrOverloaded", err)
	}
	big := make([][]value.Value, 400_000) // ~10 MB on the wire, past any socket buffer
	for i := range big {
		big[i] = []value.Value{value.NewInt(int64(i)), value.NewString("sixteen bytes...")}
	}
	if err := dial(t, Config{Addr: addr, PoolSize: 1}).BulkLoad("t", big); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("shed connection, write refused: err = %v, want ErrOverloaded", err)
	}
	c1.Close()
	waitFor(t, "the first session to end", func() bool { return sessions(reg).Value == 0 })
	if err := c2.Ping(); err != nil {
		t.Fatalf("request after capacity freed: %v", err)
	}
}
