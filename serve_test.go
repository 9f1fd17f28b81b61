package tierdb

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"tierdb/internal/server"
	"tierdb/internal/server/client"
)

// TestServeEndToEnd drives the full stack — Config.ListenAddr, the wire
// protocol, the dbEngine adapter — from a real network client.
func TestServeEndToEnd(t *testing.T) {
	db, err := Open(Config{ListenAddr: "127.0.0.1:0", WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addr := db.ServerAddr()
	if addr == "" {
		t.Fatal("ServerAddr empty with ListenAddr set")
	}

	c, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fields := []Field{
		{Name: "id", Type: Int64Type},
		{Name: "amount", Type: Float64Type},
		{Name: "tag", Type: StringType, Width: 8},
	}
	if err := c.CreateTable("orders", fields); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("orders", []Value{Int(1), Float(9.5), String("a")}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 0, 99)
	for i := int64(2); i <= 100; i++ {
		rows = append(rows, []Value{Int(i), Float(float64(i)), String("b")})
	}
	if err := c.BulkLoad("orders", rows); err != nil {
		t.Fatal(err)
	}
	n, err := c.Rows("orders")
	if err != nil || n != 100 {
		t.Fatalf("Rows = %d, %v; want 100", n, err)
	}

	res, err := c.Select("orders",
		[]server.Predicate{client.Between("id", Int(10), Int(19))}, "id", "tag")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 10 || len(res.Rows) != 10 {
		t.Fatalf("Select returned %d ids, %d rows; want 10", len(res.IDs), len(res.Rows))
	}
	for _, row := range res.Rows {
		if id := row[0].Int(); id < 10 || id > 19 || row[1].Str() != "b" {
			t.Fatalf("bad row %v", row)
		}
	}

	point, err := c.Select("orders", []server.Predicate{client.Eq("id", Int(42))})
	if err != nil {
		t.Fatal(err)
	}
	if len(point.IDs) != 1 || len(point.Rows) != 0 {
		t.Fatalf("point Select without projection = %d ids, %d rows; want 1, 0", len(point.IDs), len(point.Rows))
	}

	// Mutations through the service layer commit real transactions.
	if err := c.Update("orders", uint64(res.IDs[0]), []Value{Int(10), Float(0), String("upd")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("orders", uint64(res.IDs[1])); err != nil {
		t.Fatal(err)
	}
	if n, _ = c.Rows("orders"); n != 99 {
		t.Fatalf("Rows after delete = %d; want 99", n)
	}
	if err := c.Delete("orders", uint64(res.IDs[1])); err == nil {
		t.Fatal("double delete succeeded")
	}

	// Layout control over the wire.
	if err := c.ApplyLayout("orders", []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Layout(); !slices.Equal(got, []bool{true, false, true}) {
		t.Fatalf("layout after ApplyLayout = %v", got)
	}
	if err := c.ApplyLayout("orders", []bool{true}); err == nil {
		t.Fatal("short layout vector accepted")
	}

	// The engine's stats include the server's own instruments.
	snap := db.Stats()
	if snap.Counters["server.requests_total"] == 0 {
		t.Error("server.requests_total missing from engine stats")
	}
	if snap.Gauges["server.sessions"].Value < 1 {
		t.Errorf("server.sessions = %d; want >= 1", snap.Gauges["server.sessions"].Value)
	}

	names, err := c.Tables()
	if err != nil || len(names) != 1 || names[0] != "orders" {
		t.Fatalf("Tables = %v, %v", names, err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDurableDrain proves the drain ordering in Close: acked
// writes from network clients survive a close-and-reopen of the same
// WAL directory.
func TestServeDurableDrain(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{ListenAddr: "127.0.0.1:0", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(client.Config{Addr: dir2addr(t, db)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", []Field{{Name: "id", Type: Int64Type}}); err != nil {
		t.Fatal(err)
	}
	const acked = 50
	for i := 0; i < acked; i++ {
		if err := c.Insert("t", []Value{Int(int64(i))}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	c.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != acked {
		t.Fatalf("recovered %d rows; want %d acked over the wire", got, acked)
	}
}

func dir2addr(t *testing.T, db *DB) string {
	t.Helper()
	addr := db.ServerAddr()
	if addr == "" {
		t.Fatal("no server address")
	}
	return addr
}

// TestServeCloseRejectsClients proves Close drains the service layer:
// after Close returns, the port no longer accepts, and a connected
// client's requests fail rather than hang.
func TestServeCloseRejectsClients(t *testing.T) {
	db, err := Open(Config{ListenAddr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr := db.ServerAddr()
	c, err := client.Dial(client.Config{Addr: addr, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after Close")
	}
	if _, err := client.Dial(client.Config{Addr: addr, DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestServeTypedErrors proves admission-control errors keep their type
// across the wire and the root re-exports match.
func TestServeTypedErrors(t *testing.T) {
	db, err := Open(Config{ListenAddr: "127.0.0.1:0", MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c1, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err == nil {
		err = c2.Ping()
		c2.Close()
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second session error = %v; want tierdb.ErrOverloaded", err)
	}
}

// TestServeWrongTypedOperand is the wire twin of
// TestWrongTypedOperandIsAnError: one well-formed OpSelect frame whose
// operand does not match the column's type is answered with
// StatusEngineErr (an untyped error carrying the engine's message) and
// counted in server.errors, and the session — and the server process,
// which recovers from nothing — lives on to answer the next request.
func TestServeWrongTypedOperand(t *testing.T) {
	db, err := Open(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("t", []Field{{Name: "a", Type: Int64Type}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Counters["server.errors"]
	res, err := c.Select("t", []server.Predicate{client.Eq("a", String("x"))})
	if err == nil {
		t.Fatalf("Select with a String operand on an Int64 column = %+v, want an error", res)
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, server.ErrDraining) || errors.Is(err, server.ErrProtocol) {
		t.Errorf("error %v is typed as a server condition, want the engine's own (StatusEngineErr)", err)
	}
	if !strings.Contains(err.Error(), "has type string, want int64") {
		t.Errorf("error %q does not carry the engine's message", err)
	}
	if got := db.Stats().Counters["server.errors"] - before; got != 1 {
		t.Errorf("server.errors grew by %d, want 1", got)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("Ping on the same connection after the rejected Select: %v", err)
	}
	if res, err := c.Select("t", []server.Predicate{client.Eq("a", Int(1))}); err != nil || len(res.IDs) != 1 {
		t.Errorf("well-typed Select afterwards = %+v, %v; want one row", res, err)
	}
}

// TestServeCallerListener covers DB.Serve with a caller-owned listener.
func TestServeCallerListener(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go db.Serve(ln)
	c, err := client.Dial(client.Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if db.ServerAddr() != ln.Addr().String() {
		t.Fatalf("ServerAddr = %q; want %q", db.ServerAddr(), ln.Addr().String())
	}
}

// TestServeInsertedStringOutlivesSessionBuffer: the session reads every
// frame into one buffer it keeps, and a request's strings are copied out
// of it — so a string inserted as a new distinct delta value reads back
// unchanged after the same session has read 100 more frames with other
// bytes into that buffer.
func TestServeInsertedStringOutlivesSessionBuffer(t *testing.T) {
	db, err := Open(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("notes", []Field{{Name: "id", Type: Int64Type}, {Name: "note", Type: StringType, Width: 16}}); err != nil {
		t.Fatal(err)
	}
	const first = "kept-0123456789"
	for i := 0; i <= 100; i++ {
		note := first
		if i > 0 {
			note = strings.Repeat(string(rune('a'+i%26)), len(first))
		}
		if err := c.Insert("notes", []Value{Int(int64(i)), String(note)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Select("notes", []server.Predicate{client.Eq("id", Int(0))}, "note")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != first {
		t.Fatalf("inserted %q, read back %v", first, res.Rows)
	}
}
