package tpcc

import (
	"testing"

	"tierdb/internal/exec"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

func smallConfig() Config {
	return Config{Warehouses: 2, DistrictsPerWarehouse: 3, OrdersPerDistrict: 9, Items: 100, Seed: 1}
}

func TestGenerateOrderLinesShape(t *testing.T) {
	cfg := smallConfig()
	rows := GenerateOrderLines(cfg)
	// 2 warehouses x 3 districts x 9 orders x 5..15 lines.
	if len(rows) < 2*3*9*5 || len(rows) > 2*3*9*15 {
		t.Fatalf("rows = %d, outside [270, 810]", len(rows))
	}
	sawUndelivered := false
	sawDelivered := false
	for _, r := range rows {
		if len(r) != 10 {
			t.Fatalf("row arity = %d", len(r))
		}
		w := r[OLWarehouseID].Int()
		if w < 1 || w > 2 {
			t.Fatalf("warehouse = %d", w)
		}
		q := r[OLQuantity].Int()
		if q < 1 || q > 10 {
			t.Fatalf("quantity = %d", q)
		}
		if r[OLDeliveryDate].Int() == undelivered {
			sawUndelivered = true
		} else {
			sawDelivered = true
		}
	}
	if !sawUndelivered || !sawDelivered {
		t.Error("expected a mix of delivered and undelivered lines")
	}
	// Deterministic per seed.
	again := GenerateOrderLines(cfg)
	if len(again) != len(rows) {
		t.Error("generation not deterministic")
	}
}

func TestLayoutForBudget(t *testing.T) {
	l02 := LayoutForBudget(0.2)
	mrcs := 0
	for _, in := range l02 {
		if in {
			mrcs++
		}
	}
	if mrcs != 4 {
		t.Errorf("w=0.2 MRCs = %d, want 4 (PK)", mrcs)
	}
	l04 := LayoutForBudget(0.4)
	if !l04[OLDeliveryDate] || !l04[OLQuantity] {
		t.Error("w=0.4 should add ol_delivery_d and ol_quantity")
	}
	if l02[OLQuantity] {
		t.Error("w=0.2 should keep ol_quantity tiered")
	}
}

func buildAll(t *testing.T, layout []bool) (*table.Table, *exec.Executor) {
	t.Helper()
	tbl, err := BuildOrderLine(smallConfig(), table.Options{}, layout)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, exec.New(tbl, exec.Options{})
}

func TestDeliveryTransaction(t *testing.T) {
	for _, layout := range [][]bool{nil, LayoutForBudget(0.2)} {
		tbl, e := buildAll(t, layout)
		sched := NewScheduler(smallConfig())
		before := countUndelivered(t, tbl, 1, 1)
		if before == 0 {
			t.Fatal("no undelivered orders generated")
		}
		amount, err := Delivery(tbl, e, sched, 1, 1, 20180101)
		if err != nil {
			t.Fatal(err)
		}
		if amount <= 0 {
			t.Error("delivery returned zero amount")
		}
		after := countUndelivered(t, tbl, 1, 1)
		if after >= before {
			t.Errorf("undelivered lines: %d -> %d, expected decrease", before, after)
		}
		// Repeated deliveries eventually drain the district.
		for i := 0; i < 10; i++ {
			if _, err := Delivery(tbl, e, sched, 1, 1, 20180102); err != nil {
				t.Fatal(err)
			}
		}
		if n := countUndelivered(t, tbl, 1, 1); n != 0 {
			t.Errorf("undelivered lines after draining = %d", n)
		}
		// A drained district delivers zero without error.
		amount, err = Delivery(tbl, e, sched, 1, 1, 20180103)
		if err != nil || amount != 0 {
			t.Errorf("drained delivery = %g, %v", amount, err)
		}
	}
}

func TestSchedulerTracksDistrictsIndependently(t *testing.T) {
	sched := NewScheduler(smallConfig())
	first := sched.pop(1, 1)
	if first != 9*2/3+1 {
		t.Errorf("first undelivered order = %d, want %d", first, 9*2/3+1)
	}
	if sched.pop(1, 2) != first {
		t.Error("district 2 should start at the same order id")
	}
	if sched.pop(1, 1) != first+1 {
		t.Error("district 1 should advance")
	}
	if sched.pop(99, 99) != -1 {
		t.Error("unknown district should be drained")
	}
}

// countUndelivered counts visible undelivered lines of a district.
func countUndelivered(t *testing.T, tbl *table.Table, w, d int) int {
	t.Helper()
	e := exec.New(tbl, exec.Options{})
	res, err := e.Run(exec.Query{Predicates: []exec.Predicate{
		{Column: OLWarehouseID, Op: exec.Eq, Value: value.NewInt(int64(w))},
		{Column: OLDistrictID, Op: exec.Eq, Value: value.NewInt(int64(d))},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, id := range res.IDs {
		dd, err := tbl.GetValue(id, OLDeliveryDate)
		if err != nil {
			t.Fatal(err)
		}
		if dd.Int() == undelivered {
			n++
		}
	}
	return n
}

func TestCHQuery19ConsistentAcrossLayouts(t *testing.T) {
	var want float64
	for i, layout := range [][]bool{nil, LayoutForBudget(0.4), LayoutForBudget(0.2)} {
		tbl, e := buildAll(t, layout)
		got, err := CHQuery19(tbl, e, 1, 3, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got <= 0 {
			t.Fatal("query 19 revenue is zero")
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("layout %d: revenue %g != %g (results must not depend on placement)", i, got, want)
		}
	}
}

func TestCHQuery19WithItemJoin(t *testing.T) {
	tbl, e := buildAll(t, nil)
	items, err := BuildItems(smallConfig(), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ie := exec.New(items, exec.Options{})
	joinMap, err := ItemJoinMap(items, ie, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CHQuery19(tbl, e, 1, 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := CHQuery19(tbl, e, 1, 1, 10, joinMap)
	if err != nil {
		t.Fatal(err)
	}
	if joined <= 0 || joined >= full {
		t.Errorf("joined revenue %g, full %g; join should restrict", joined, full)
	}
}

func TestItemTable(t *testing.T) {
	items, err := BuildItems(Config{Items: 50}, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if items.MainRows() != 50 {
		t.Errorf("items = %d", items.MainRows())
	}
	v, err := items.GetValue(0, 0)
	if err != nil || v.Int() != 1 {
		t.Errorf("i_id(0) = %v, %v", v, err)
	}
}
