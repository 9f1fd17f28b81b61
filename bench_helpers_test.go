package tierdb

import (
	"math/rand"

	"tierdb/internal/amm"
	"tierdb/internal/device"
	"tierdb/internal/exec"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
)

// buildCachedORDERLINE builds a tiered ORDERLINE with an AMM cache
// sized to the given fraction of its SSCG pages. Returns the table, an
// executor, the clock, and a hit-rate probe.
func buildCachedORDERLINE(cacheFraction float64) (*table.Table, *exec.Executor, *storage.Clock, func() float64, error) {
	clock := &storage.Clock{}
	timed := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	// Size the cache against the expected SSCG page count; build the
	// table first without a cache to learn it, then rebuild with one.
	probe, err := tpcc.BuildOrderLine(tpcc.Config{Warehouses: 4, OrdersPerDistrict: 40},
		table.Options{Store: storage.NewMemStore()}, tpcc.LayoutForBudget(0.2))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pv := probe.Pin()
	pages := pv.Group().PageCount()
	pv.Release()
	frames := int(float64(pages) * cacheFraction)
	if frames < 1 {
		frames = 1
	}
	cache, err := amm.New(frames, timed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tbl, err := tpcc.BuildOrderLine(tpcc.Config{Warehouses: 4, OrdersPerDistrict: 40},
		table.Options{Store: timed, Cache: cache}, tpcc.LayoutForBudget(0.2))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	e := exec.New(tbl, exec.Options{Clock: clock})
	return tbl, e, clock, func() float64 { return cache.Stats().HitRate() }, nil
}

// newZipf returns a zipfian row-index generator.
func newZipf(rows int) func() int {
	rng := rand.New(rand.NewSource(9))
	z := rand.NewZipf(rng, 1.2, 1, uint64(rows-1))
	return func() int { return int(z.Uint64()) }
}
