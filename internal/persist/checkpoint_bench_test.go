package persist_test

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/persist"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

// orderLines are the 300 k ORDERLINE rows the benchmark workloads load.
func orderLines() [][]value.Value {
	return tpcc.GenerateOrderLines(tpcc.Config{Warehouses: 10, OrdersPerDistrict: 300, Items: 10000, Seed: 1})
}

// checkpointTable is the table the htap_mixed workload checkpoints: rows
// ORDERLINE rows merged under tpcc.LayoutForBudget(0.4) and indexed on
// ol_o_id, then a 100-row delta. opts sets its storage.
func checkpointTable(tb testing.TB, rows [][]value.Value, opts table.Options) *table.Table {
	tb.Helper()
	tbl, err := table.New("ORDERLINE", tpcc.OrderLineSchema(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tbl.BulkAppend(rows[100:]); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.ApplyLayout(tpcc.LayoutForBudget(0.4)); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.CreateIndex(tpcc.OLOrderID); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.BulkAppend(rows[:100]); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestCheckpointAllocsIndependentOfRows pins what one checkpoint
// allocates to O(columns + delta rows): a SaveAt of a 200 k-row main
// allocates at most 64 times more than one of a 20 k-row main with the
// same layout, index and 100-row delta. The main's arrays are written as
// they are, never a row or a page at a time. The SSCG sits behind a
// page cache it fits in, as in the htap_mixed workload.
func TestCheckpointAllocsIndependentOfRows(t *testing.T) {
	all := orderLines()
	save := func(rows int) float64 {
		store := storage.NewMemStore()
		cache, err := amm.New(4096, store)
		if err != nil {
			t.Fatal(err)
		}
		tbl := checkpointTable(t, all[:rows], table.Options{Store: store, Cache: cache})
		return testing.AllocsPerRun(3, func() {
			if err := persist.SaveAt(io.Discard, tbl, tbl.Manager().LastCommit()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := save(20_000), save(200_000)
	t.Logf("20k rows: %.0f allocs; 200k rows: %.0f allocs", small, large)
	if large > small+64 {
		t.Errorf("a 200k-row checkpoint allocates %.0f times, want <= %.0f (20k rows: %.0f)", large, small+64, small)
	}
}

// BenchmarkCheckpoint times one checkpoint of the htap_mixed table — 300 k
// ORDERLINE rows under tpcc.LayoutForBudget(0.4) on a page file behind
// an 8192-frame cache, indexed on ol_o_id, with a 100-row delta — and the
// restore of that snapshot into a fresh table on the same storage.
// ns/row and B/row divide by the rows saved.
func BenchmarkCheckpoint(b *testing.B) {
	rows := orderLines()
	opts := func(b *testing.B) table.Options {
		store, err := storage.NewFileStore(filepath.Join(b.TempDir(), "pages"))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		cache, err := amm.New(8192, store)
		if err != nil {
			b.Fatal(err)
		}
		return table.Options{Store: store, Cache: cache}
	}
	tbl := checkpointTable(b, rows, opts(b))
	var snap bytes.Buffer
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap.Reset()
			if err := persist.SaveAt(&snap, tbl, tbl.Manager().LastCommit()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		b.ReportMetric(float64(snap.Len())/float64(len(rows)), "B/row")
	})
	b.Run("load", func(b *testing.B) {
		o := opts(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restored, err := persist.Load(bytes.NewReader(snap.Bytes()), o)
			if err != nil {
				b.Fatal(err)
			}
			if n := restored.VisibleCount(); n != len(rows) {
				b.Fatalf("restored %d rows, want %d", n, len(rows))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
	})
}
