package experiments

import (
	"fmt"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/device"
	"tierdb/internal/exec"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
)

// table3Env bundles one ORDERLINE instance under a layout with a timed
// device and page cache.
type table3Env struct {
	tbl   *table.Table
	exec  *exec.Executor
	clock *storage.Clock
}

func newTable3Env(cfg tpcc.Config, layout []bool, cacheFrames int) (*table3Env, error) {
	clock := &storage.Clock{}
	timed := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	var cache *amm.Cache
	if cacheFrames > 0 {
		var err error
		cache, err = amm.New(cacheFrames, timed)
		if err != nil {
			return nil, err
		}
	}
	tbl, err := tpcc.BuildOrderLine(cfg, table.Options{Store: timed, Cache: cache}, layout)
	if err != nil {
		return nil, err
	}
	clock.Reset() // exclude load/merge time
	return &table3Env{
		tbl:   tbl,
		exec:  exec.New(tbl, exec.Options{Clock: clock}),
		clock: clock,
	}, nil
}

// runDeliveries executes one delivery per (warehouse, district) pair and
// returns the virtual time consumed.
func (env *table3Env) runDeliveries(cfg tpcc.Config) (time.Duration, error) {
	sched := tpcc.NewScheduler(cfg)
	env.clock.Reset()
	for round := 0; round < 3; round++ {
		for w := 1; w <= cfg.Warehouses; w++ {
			for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
				if _, err := tpcc.Delivery(env.tbl, env.exec, sched, w, d, 20180115); err != nil {
					return 0, err
				}
			}
		}
	}
	return env.clock.Elapsed(), nil
}

// runQ19 executes the CH query #19 equivalent once per warehouse.
func (env *table3Env) runQ19(cfg tpcc.Config) (time.Duration, error) {
	env.clock.Reset()
	for w := 1; w <= cfg.Warehouses; w++ {
		if _, err := tpcc.CHQuery19(env.tbl, env.exec, w, 4, 4); err != nil {
			return 0, err
		}
	}
	return env.clock.Elapsed(), nil
}

// evictedShare returns the fraction of the table's attribute bytes that
// live on secondary storage: the SSCG's bytes against those plus the
// MRCs'. Deltas and MVCC state are not attribute data.
func evictedShare(tbl *table.Table) float64 {
	sec, mem := float64(tbl.SecondaryBytes()), 0.0
	for col, inDRAM := range tbl.Layout() {
		if inDRAM {
			mem += float64(tbl.ColumnBytes(col))
		}
	}
	if sec+mem == 0 {
		return 0
	}
	return sec / (sec + mem)
}

// Table3 regenerates Table III: the end-to-end impact of tiering on
// TPC-C's delivery transaction and CH-benCHmark query #19, on the
// ORDERLINE table under the paper's layouts (w = 0.2 keeps only the
// four primary-key columns in DRAM; w = 0.4 adds ol_delivery_d and
// ol_quantity).
func Table3(seed int64) (*Report, error) {
	cfg := tpcc.Config{
		Warehouses:            8,
		DistrictsPerWarehouse: 10,
		OrdersPerDistrict:     60,
		Items:                 1000,
		Seed:                  seed,
	}
	// Page cache: ~2 % of the SSCG pages, as in the paper's setup.
	const cacheFrames = 64

	base, err := newTable3Env(cfg, nil, cacheFrames)
	if err != nil {
		return nil, err
	}
	w02, err := newTable3Env(cfg, tpcc.LayoutForBudget(0.2), cacheFrames)
	if err != nil {
		return nil, err
	}
	w04, err := newTable3Env(cfg, tpcc.LayoutForBudget(0.4), cacheFrames)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "table3",
		Title:  "End-to-end impact of tiering: TPC-C delivery and CH query #19 (paper Table III)",
		Header: []string{"Workload", "Data evicted", "baseline", "tiered", "Slowdown", "paper"},
	}

	// Delivery at w = 0.2. Fresh environments per run: delivery
	// mutates the table.
	baseDelivery, err := base.runDeliveries(cfg)
	if err != nil {
		return nil, err
	}
	tieredDelivery, err := w02.runDeliveries(cfg)
	if err != nil {
		return nil, err
	}
	r.AddRow("TPC-C delivery",
		fmt.Sprintf("%.0f%%", evictedShare(w02.tbl)*100),
		baseDelivery.Round(time.Microsecond).String(),
		tieredDelivery.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2fx", float64(tieredDelivery)/float64(baseDelivery)),
		"1.02x @ 80% evicted")

	// CH query #19 at w = 0.2 and w = 0.4 (fresh, un-delivered state).
	base2, err := newTable3Env(cfg, nil, cacheFrames)
	if err != nil {
		return nil, err
	}
	baseQ19, err := base2.runQ19(cfg)
	if err != nil {
		return nil, err
	}
	w02b, err := newTable3Env(cfg, tpcc.LayoutForBudget(0.2), cacheFrames)
	if err != nil {
		return nil, err
	}
	q02, err := w02b.runQ19(cfg)
	if err != nil {
		return nil, err
	}
	r.AddRow("CH-query #19 (w=0.2)",
		fmt.Sprintf("%.0f%%", evictedShare(w02b.tbl)*100),
		baseQ19.Round(time.Microsecond).String(),
		q02.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2fx", float64(q02)/float64(baseQ19)),
		"6.70x @ 80% evicted")

	w04b, err := newTable3Env(cfg, tpcc.LayoutForBudget(0.4), cacheFrames)
	if err != nil {
		return nil, err
	}
	q04, err := w04b.runQ19(cfg)
	if err != nil {
		return nil, err
	}
	r.AddRow("CH-query #19 (w=0.4)",
		fmt.Sprintf("%.0f%%", evictedShare(w04b.tbl)*100),
		baseQ19.Round(time.Microsecond).String(),
		q04.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2fx", float64(q04)/float64(baseQ19)),
		"1.12x @ 63% evicted")

	_ = w04
	r.AddNote("baseline is the fully DRAM-resident layout; times are modeled device+DRAM virtual time")
	r.AddNote("w=0.2 keeps only the 4 primary-key MRCs, so the ol_quantity range predicate runs on the tiered column group; w=0.4 moves ol_delivery_d and ol_quantity back to DRAM and only the narrow ol_amount materialization stays tiered")
	return r, nil
}
