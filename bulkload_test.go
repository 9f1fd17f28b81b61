package tierdb

import (
	"strings"
	"testing"

	"tierdb/internal/server/client"
	"tierdb/internal/wal"
)

// TestBadBulkLoadHasNoEffect loads a batch whose last row has the wrong
// type for its column, through the root API without and with a WAL and
// through the wire client. The load must fail, leave the visible rows as
// they were, and log nothing: the database reopens with the same count.
func TestBadBulkLoadHasNoEffect(t *testing.T) {
	good := [][]Value{{Int(1), String("a")}, {Int(2), String("b")}}
	bad := [][]Value{{Int(3), String("x")}, {Int(4), String("y")}, {String("bad"), String("z")}}
	check := func(t *testing.T, load func([][]Value) error, rows func() int) {
		t.Helper()
		if err := load(good); err != nil {
			t.Fatal(err)
		}
		err := load(bad)
		if err == nil || !strings.Contains(err.Error(), "want int64") {
			t.Fatalf("bad batch: err = %v, want a type error", err)
		}
		if n := rows(); n != len(good) {
			t.Fatalf("after the bad batch %d rows are visible, want %d", n, len(good))
		}
	}
	reopen := func(t *testing.T, cfg Config) {
		t.Helper()
		db, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer db.Close()
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if n := tbl.Rows(); n != len(good) {
			t.Fatalf("reopened with %d rows, want %d", n, len(good))
		}
	}

	t.Run("memory", func(t *testing.T) {
		db, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("t", walFields)
		if err != nil {
			t.Fatal(err)
		}
		check(t, tbl.BulkLoad, tbl.Rows)
	})

	t.Run("wal", func(t *testing.T) {
		fs := wal.NewMemFS()
		db, err := Open(walConfig(fs, SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("t", walFields)
		if err != nil {
			t.Fatal(err)
		}
		check(t, tbl.BulkLoad, tbl.Rows)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, walConfig(fs, SyncAlways))
	})

	t.Run("wire", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(Config{ListenAddr: "127.0.0.1:0", WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(client.Config{Addr: db.ServerAddr()})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateTable("t", walFields); err != nil {
			t.Fatal(err)
		}
		check(t, func(rows [][]Value) error { return c.BulkLoad("t", rows) }, func() int {
			n, err := c.Rows("t")
			if err != nil {
				t.Fatal(err)
			}
			return n
		})
		c.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, Config{WALDir: dir})
	})
}
