package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/value"
)

// fakeEngine is a concurrency-safe in-memory engine: one map of table
// name to rows. A non-nil gate makes every mutating op block until the
// gate closes, which is how the tests pin requests inflight.
type fakeEngine struct {
	mu       sync.Mutex
	tables   map[string][][]value.Value
	gate     chan struct{}
	fail     atomic.Bool
	adaptive atomic.Bool
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{tables: map[string][][]value.Value{"t": {}}}
}

func (e *fakeEngine) wait() {
	if e.gate != nil {
		<-e.gate
	}
}

func (e *fakeEngine) CreateTable(_ context.Context, name string, fields []schema.Field) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[name]; ok {
		return fmt.Errorf("table %q exists", name)
	}
	e.tables[name] = nil
	return nil
}

func (e *fakeEngine) Insert(_ context.Context, table string, row []value.Value) error {
	e.wait()
	if e.fail.Load() {
		return errors.New("injected failure")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rows, ok := e.tables[table]
	if !ok {
		return fmt.Errorf("no table %q", table)
	}
	e.tables[table] = append(rows, row)
	return nil
}

func (e *fakeEngine) Delete(_ context.Context, table string, id uint64) error {
	e.wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	rows := e.tables[table]
	if id >= uint64(len(rows)) {
		return fmt.Errorf("no row %d", id)
	}
	e.tables[table] = append(rows[:id], rows[id+1:]...)
	return nil
}

func (e *fakeEngine) Update(_ context.Context, table string, id uint64, row []value.Value) error {
	e.wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	rows := e.tables[table]
	if id >= uint64(len(rows)) {
		return fmt.Errorf("no row %d", id)
	}
	rows[id] = row
	return nil
}

func (e *fakeEngine) BulkLoad(_ context.Context, table string, rows [][]value.Value) error {
	e.wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[table] = append(e.tables[table], rows...)
	return nil
}

func (e *fakeEngine) Select(_ context.Context, table string, preds []server.Predicate, project []string) (*server.Result, error) {
	e.wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	rows, ok := e.tables[table]
	if !ok {
		return nil, fmt.Errorf("no table %q", table)
	}
	res := &server.Result{}
	for i, row := range rows {
		res.IDs = append(res.IDs, uint64(i))
		if len(project) > 0 {
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func (e *fakeEngine) Checkpoint(context.Context) error { return nil }

func (e *fakeEngine) Rows(table string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rows, ok := e.tables[table]
	if !ok {
		return 0, fmt.Errorf("no table %q", table)
	}
	return len(rows), nil
}

func (e *fakeEngine) Tables() []string { return []string{"t"} }

func (e *fakeEngine) ApplyLayout(table string, inDRAM []bool) error { return nil }

func (e *fakeEngine) Adaptive(enable bool) error {
	e.adaptive.Store(enable)
	return nil
}

// countEngine answers Rows for table "t<n>" with n, so a reply handed
// to the wrong caller is detected even though every frame has the same
// shape.
type countEngine struct{ fakeEngine }

func (e *countEngine) Rows(table string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(table, "t%d", &n); err != nil {
		return 0, err
	}
	return n, nil
}

// boot starts a server over the fake engine on a random loopback port.
func boot(t *testing.T, e server.Engine, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(e, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown() })
	return srv, ln.Addr().String()
}

// TestClientRoundtrips drives every typed client call against the fake.
func TestClientRoundtrips(t *testing.T) {
	e := newFakeEngine()
	reg := metrics.NewRegistry()
	_, addr := boot(t, e, server.Config{Registry: reg})
	c, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("u", []schema.Field{{Name: "id", Type: value.Int64}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("u", nil); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := c.Insert("t", []value.Value{value.NewInt(1), value.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad("t", [][]value.Value{{value.NewInt(2)}, {value.NewInt(3)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Update("t", 0, []value.Value{value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("t", 2); err != nil {
		t.Fatal(err)
	}
	n, err := c.Rows("t")
	if err != nil || n != 2 {
		t.Fatalf("Rows = %d, %v; want 2", n, err)
	}
	res, err := c.Select("t", []server.Predicate{client.Eq("id", value.NewInt(9))}, "id")
	if err != nil || len(res.IDs) != 2 || len(res.Rows) != 2 {
		t.Fatalf("Select = %+v, %v", res, err)
	}
	if res, err := c.Select("t", nil); err != nil || len(res.IDs) != 2 || len(res.Rows) != 0 {
		t.Fatalf("Select without projection = %+v, %v", res, err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := c.Tables()
	if err != nil || len(names) != 1 {
		t.Fatalf("Tables = %v, %v", names, err)
	}
	if err := c.ApplyLayout("t", []bool{true}); err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{true, false} {
		if err := c.SetAdaptive(on); err != nil || e.adaptive.Load() != on {
			t.Fatalf("SetAdaptive(%v) = %v, engine has %v", on, err, e.adaptive.Load())
		}
	}
	// Engine errors surface with their message and do not kill the
	// session.
	if err := c.Insert("nope", nil); err == nil || !strings.Contains(err.Error(), "no table") {
		t.Fatalf("missing table: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session should survive an engine error: %v", err)
	}

	snapshot := reg.Snapshot()
	if snapshot.Counters["server.requests_total"] < 10 {
		t.Errorf("requests_total = %d", snapshot.Counters["server.requests_total"])
	}
	if snapshot.Histograms["server.request_ns"].Count < 10 {
		t.Errorf("request_ns count = %d", snapshot.Histograms["server.request_ns"].Count)
	}
	if snapshot.Gauges["server.sessions"].Max < 1 {
		t.Errorf("sessions max = %d", snapshot.Gauges["server.sessions"].Max)
	}
}

// TestInflightShedding proves MaxInflight sheds with ErrOverloaded
// instead of queuing: with the engine gated shut and capacity 2, a
// burst of concurrent requests sees exactly the capacity succeed once
// the gate opens, and at least one typed reject.
func TestInflightShedding(t *testing.T) {
	e := newFakeEngine()
	e.gate = make(chan struct{})
	reg := metrics.NewRegistry()
	_, addr := boot(t, e, server.Config{MaxInflight: 2, Registry: reg})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 8
	var overloaded, ok atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			err := c.Insert("t", []value.Value{value.NewInt(int64(i))})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, server.ErrOverloaded):
				overloaded.Add(1)
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(start)
	// With the gate shut, exactly 2 requests hold inflight slots and
	// the other 6 must come back shed. Wait for all sheds before
	// releasing the gate so no late arrival can sneak through a freed
	// slot.
	deadline := time.Now().Add(10 * time.Second)
	for overloaded.Load() < burst-2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests shed after 10s", overloaded.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(e.gate)
	wg.Wait()

	if got := ok.Load(); got != 2 {
		t.Errorf("%d requests passed a MaxInflight=2 gate while it was shut", got)
	}
	if overloaded.Load() == 0 {
		t.Error("no request was shed with ErrOverloaded")
	}
	if ok.Load()+overloaded.Load() != burst {
		t.Errorf("accounted %d+%d of %d", ok.Load(), overloaded.Load(), burst)
	}
	if rejects := reg.Snapshot().Counters["server.rejects"]; rejects != overloaded.Load() {
		t.Errorf("server.rejects = %d, want %d", rejects, overloaded.Load())
	}
	// After the overload clears, shed callers retry successfully.
	if err := c.Insert("t", []value.Value{value.NewInt(99)}); err != nil {
		t.Errorf("post-overload insert: %v", err)
	}
}

// TestSessionShedding proves MaxSessions sheds whole connections with a
// typed error.
func TestSessionShedding(t *testing.T) {
	e := newFakeEngine()
	_, addr := boot(t, e, server.Config{MaxSessions: 1})
	c1, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	// The second connection is shed at admission. The reject frame may
	// race the dial, so the error surfaces on the first request.
	c2, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err == nil {
		defer c2.Close()
		err = c2.Ping()
	}
	if !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("second session error = %v, want ErrOverloaded", err)
	}
	// The admitted session is unaffected.
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestClientSharedConnInserts issues many concurrent requests through a
// client with a single connection, which they take in turn, and checks
// every one is applied.
func TestClientSharedConnInserts(t *testing.T) {
	e := newFakeEngine()
	_, addr := boot(t, e, server.Config{})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Insert("t", []value.Value{value.NewInt(int64(i))}); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, err := c.Rows("t")
	if err != nil || got != n {
		t.Fatalf("Rows = %d, %v; want %d", got, err, n)
	}
}

// TestClientSharedConnSaturationFIFO hammers a single connection with
// far more callers than it can serve at once, so nearly every request
// waits for it, and checks each caller receives its own response. The
// count engine answers Rows("t<n>") with n, so a response delivered to
// the wrong caller is detected even though all frames are same-shaped.
func TestClientSharedConnSaturationFIFO(t *testing.T) {
	_, addr := boot(t, &countEngine{}, server.Config{})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 300
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			table := fmt.Sprintf("t%d", i)
			got, err := c.Rows(table)
			if err != nil {
				t.Errorf("rows %s: %v", table, err)
				return
			}
			if got != i {
				t.Errorf("rows %s: got the response for t%d", table, got)
			}
		}(i)
	}
	wg.Wait()
}

// TestGracefulDrain proves Shutdown waits for an inflight request to
// finish and answer, and that connections after shutdown are refused.
func TestGracefulDrain(t *testing.T) {
	e := newFakeEngine()
	e.gate = make(chan struct{})
	srv, addr := boot(t, e, server.Config{DrainTimeout: 5 * time.Second})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflightErr := make(chan error, 1)
	go func() {
		inflightErr <- c.Insert("t", []value.Value{value.NewInt(1)})
	}()
	time.Sleep(100 * time.Millisecond) // request reaches the gate

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown() }()
	time.Sleep(100 * time.Millisecond)
	// Shutdown has begun: the listener is closed.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("server still accepting after Shutdown began")
	}
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a request still inflight")
	default:
	}

	close(e.gate) // let the inflight request finish
	if err := <-inflightErr; err != nil {
		t.Fatalf("inflight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n, _ := e.Rows("t"); n != 1 {
		t.Fatalf("inflight insert not applied: %d rows", n)
	}
	// New connections are refused outright.
	c2, err := client.Dial(client.Config{Addr: addr})
	if err == nil {
		err = c2.Ping()
		c2.Close()
	}
	if err == nil {
		t.Fatal("connect after shutdown succeeded")
	}
}

// TestDrainForceCloses proves a hung request cannot hold Shutdown
// hostage past DrainTimeout.
func TestDrainForceCloses(t *testing.T) {
	e := newFakeEngine()
	e.gate = make(chan struct{})
	defer close(e.gate)
	srv, addr := boot(t, e, server.Config{DrainTimeout: 200 * time.Millisecond})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Insert("t", []value.Value{value.NewInt(1)}) // hangs on the gate
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if err := srv.Shutdown(); err == nil {
		t.Fatal("Shutdown reported a clean drain despite a hung request")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %s despite DrainTimeout", elapsed)
	}
}

// TestHostileSession feeds garbage to a live server: the session must
// answer with a typed protocol error (or just close), never hang, and
// the server must keep serving well-formed clients.
func TestHostileSession(t *testing.T) {
	e := newFakeEngine()
	_, addr := boot(t, e, server.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("\xde\xad\xbe\xef not a frame at all"))
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	n, _ := nc.Read(buf) // error frame or EOF — either is fine
	_ = n
	nc.Close()

	c, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server damaged by hostile session: %v", err)
	}
}

// TestClientRequestsLeaveNoTimers checks that answered requests leave
// nothing behind on the heap: the request timer must be stopped when
// the response arrives, not left to expire RequestTimeout (30 s) later.
// Two pending timers per request used to cost some 400 bytes each.
func TestClientRequestsLeaveNoTimers(t *testing.T) {
	_, addr := boot(t, newFakeEngine(), server.Config{})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ping := func(n int) {
		for i := 0; i < n; i++ {
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 20000
	ping(100) // buffers and session state exist before the first reading
	before := live()
	ping(n)
	after := live()
	if grown := int64(after) - int64(before); grown > n*16 {
		t.Errorf("live heap grew %d bytes over %d answered requests (%d B/request): something outlives each request",
			grown, n, grown/n)
	}
}
