package table_test

import (
	"testing"

	"tierdb/internal/table"
	"tierdb/internal/tpcc"
)

// BenchmarkMergeRebuild times one Merge of the main the htap_mixed
// benchmark workload runs on — 300 k ORDERLINE rows under
// tpcc.LayoutForBudget(0.4), indexed on ol_o_id — plus a 3 k-row delta,
// the merge that workload runs three times a window. ns/row divides by
// the rows of the main each merge builds.
func BenchmarkMergeRebuild(b *testing.B) {
	tbl, err := tpcc.BuildOrderLine(tpcc.Config{Warehouses: 10, OrdersPerDistrict: 300, Items: 10000, Seed: 1},
		table.Options{}, tpcc.LayoutForBudget(0.4))
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex(tpcc.OLOrderID); err != nil {
		b.Fatal(err)
	}
	delta := tpcc.GenerateOrderLines(tpcc.Config{Warehouses: 1, OrdersPerDistrict: 30, Items: 10000, Seed: 2})[:3000]
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := tbl.BulkAppend(delta); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tbl.Merge(); err != nil {
			b.Fatal(err)
		}
		rows += tbl.MainRows()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// BenchmarkBulkLoad times a BulkLoad of the rows the benchmark workloads
// load — 300 k ORDERLINE rows appended to a fresh table as one batch and
// merged into its all-MRC main. ns/row divides by the rows loaded.
func BenchmarkBulkLoad(b *testing.B) {
	rows := tpcc.GenerateOrderLines(tpcc.Config{Warehouses: 10, OrdersPerDistrict: 300, Items: 10000, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := table.New("ORDERLINE", tpcc.OrderLineSchema(), table.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.BulkAppend(rows); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Merge(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
