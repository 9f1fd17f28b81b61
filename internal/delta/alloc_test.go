package delta_test

import (
	"testing"

	"tierdb/internal/delta"
	"tierdb/internal/tpcc"
)

// TestAppendAllocs pins what appending one ORDERLINE row to a 10 k-row
// delta allocates: at most two objects, the new posting lists of
// ol_amount and ol_dist_info, whose values are nearly all new; every
// other column's position goes last in an existing list, and the
// dictionaries and code vectors grow by doubling.
func TestAppendAllocs(t *testing.T) {
	rows := tpcc.GenerateOrderLines(tpcc.Config{Warehouses: 4, Seed: 1})
	const loaded, runs = 10_000, 1000
	if len(rows) < loaded+runs+1 {
		t.Fatalf("%d rows generated, want %d", len(rows), loaded+runs+1)
	}
	p := delta.New(tpcc.OrderLineSchema())
	if _, err := p.AppendRows(rows[:loaded], 1); err != nil {
		t.Fatal(err)
	}
	next := loaded
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := p.Append(rows[next], 1); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.2f allocs per one-row Append", allocs)
	if allocs > 2 {
		t.Errorf("a one-row Append allocates %.2f times, want <= 2", allocs)
	}
}
