// Package tpcc implements the TPC-C substrate of the paper's end-to-end
// evaluation (Section IV, Table III): the ORDERLINE table (the largest
// of the benchmark), the delivery transaction whose order lines are
// updated through the DRAM-resident delta, and a CH-benCHmark query #19
// equivalent whose range predicate on ol_quantity lands on a tiered
// column under tight DRAM budgets.
package tpcc

import (
	"fmt"
	"math/rand"

	"tierdb/internal/exec"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// ORDERLINE column positions.
const (
	OLOrderID = iota
	OLDistrictID
	OLWarehouseID
	OLNumber
	OLItemID
	OLSupplyWarehouseID
	OLDeliveryDate
	OLQuantity
	OLAmount
	OLDistInfo
)

// PrimaryKeyColumns are the four ORDERLINE attributes the paper's
// allocation model keeps as MRCs under w = 0.2.
var PrimaryKeyColumns = []int{OLOrderID, OLDistrictID, OLWarehouseID, OLNumber}

// OrderLineSchema returns the 10-attribute ORDERLINE schema.
func OrderLineSchema() *schema.Schema {
	return schema.MustNew([]schema.Field{
		{Name: "ol_o_id", Type: value.Int64},
		{Name: "ol_d_id", Type: value.Int64},
		{Name: "ol_w_id", Type: value.Int64},
		{Name: "ol_number", Type: value.Int64},
		{Name: "ol_i_id", Type: value.Int64},
		{Name: "ol_supply_w_id", Type: value.Int64},
		{Name: "ol_delivery_d", Type: value.Int64},
		{Name: "ol_quantity", Type: value.Int64},
		{Name: "ol_amount", Type: value.Float64},
		{Name: "ol_dist_info", Type: value.String, Width: 24},
	})
}

// Config sizes the generated TPC-C data. The paper runs scale factor
// 3000 (300 M order lines); simulations scale down while keeping the
// same shape.
type Config struct {
	// Warehouses is the scale factor W.
	Warehouses int
	// DistrictsPerWarehouse defaults to TPC-C's 10.
	DistrictsPerWarehouse int
	// OrdersPerDistrict defaults to 30 (TPC-C: 3000; scaled down).
	OrdersPerDistrict int
	// Items is the item-table cardinality (TPC-C: 100000; scaled).
	Items int
	// Seed makes generation reproducible.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Warehouses == 0 {
		c.Warehouses = 4
	}
	if c.DistrictsPerWarehouse == 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.OrdersPerDistrict == 0 {
		c.OrdersPerDistrict = 30
	}
	if c.Items == 0 {
		c.Items = 1000
	}
}

// undelivered marks ol_delivery_d of not-yet-delivered order lines.
const undelivered = 0

// GenerateOrderLines produces the ORDERLINE rows for the configuration:
// 5-15 lines per order, the most recent third of each district's orders
// undelivered (as after TPC-C's initial load, where orders 2101-3000
// are undelivered).
func GenerateOrderLines(cfg Config) [][]value.Value {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows [][]value.Value
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			for o := 1; o <= cfg.OrdersPerDistrict; o++ {
				lines := 5 + rng.Intn(11)
				delivered := o <= cfg.OrdersPerDistrict*2/3
				for l := 1; l <= lines; l++ {
					date := int64(undelivered)
					if delivered {
						date = int64(20170000 + rng.Intn(365))
					}
					rows = append(rows, []value.Value{
						value.NewInt(int64(o)),
						value.NewInt(int64(d)),
						value.NewInt(int64(w)),
						value.NewInt(int64(l)),
						value.NewInt(int64(1 + rng.Intn(cfg.Items))),
						value.NewInt(int64(w)),
						value.NewInt(date),
						value.NewInt(int64(1 + rng.Intn(10))), // quantity 1..10
						value.NewFloat(float64(rng.Intn(999999)) / 100),
						value.NewString(fmt.Sprintf("dist-%02d-%08d", d, rng.Intn(1e8))),
					})
				}
			}
		}
	}
	return rows
}

// BuildOrderLine creates, loads and tiers the ORDERLINE table. layout
// may be nil for all-DRAM.
func BuildOrderLine(cfg Config, opts table.Options, layout []bool) (*table.Table, error) {
	tbl, err := table.New("ORDERLINE", OrderLineSchema(), opts)
	if err != nil {
		return nil, err
	}
	if err := tbl.BulkAppend(GenerateOrderLines(cfg)); err != nil {
		return nil, err
	}
	if layout == nil {
		layout = make([]bool, OrderLineSchema().Len())
		for i := range layout {
			layout[i] = true
		}
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		return nil, err
	}
	return tbl, nil
}

// LayoutForBudget returns the ORDERLINE layout the paper reports for a
// relative DRAM budget w: the four primary-key columns for w = 0.2, and
// additionally ol_delivery_d and ol_quantity for w = 0.4 (Section IV-A).
func LayoutForBudget(w float64) []bool {
	layout := make([]bool, OrderLineSchema().Len())
	for _, c := range PrimaryKeyColumns {
		layout[c] = true
	}
	if w >= 0.4 {
		layout[OLDeliveryDate] = true
		layout[OLQuantity] = true
	}
	return layout
}

// Scheduler plays the role of TPC-C's NEW-ORDER table for the delivery
// transaction: per district it tracks the oldest undelivered order id,
// so delivery never scans a (possibly tiered) delivery-date column —
// matching the paper's observation that "no performance-critical path
// accesses tiered data" for TPC-C.
type Scheduler struct {
	next map[[2]int]int
	max  int
}

// NewScheduler initializes the delivery queue for freshly generated
// data: the most recent third of each district's orders is undelivered.
func NewScheduler(cfg Config) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{next: make(map[[2]int]int), max: cfg.OrdersPerDistrict}
	first := cfg.OrdersPerDistrict*2/3 + 1
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			s.next[[2]int{w, d}] = first
		}
	}
	return s
}

// pop returns the oldest undelivered order id of the district, or -1.
func (s *Scheduler) pop(warehouse, district int) int {
	key := [2]int{warehouse, district}
	o, ok := s.next[key]
	if !ok || o > s.max {
		return -1
	}
	s.next[key] = o + 1
	return o
}

// Delivery runs one TPC-C delivery transaction for a (warehouse,
// district): pop the oldest undelivered order from the scheduler, fetch
// its lines via the MRC primary-key columns, stamp them with the
// delivery date, and sum their amounts. Lookups run on MRCs; updates
// flow through the delta — the path the paper reports as unaffected by
// tiering (1.02x at 80 % eviction).
func Delivery(tbl *table.Table, e *exec.Executor, sched *Scheduler, warehouse, district int, date int64) (float64, error) {
	order := sched.pop(warehouse, district)
	if order < 0 {
		return 0, nil // nothing to deliver
	}
	mgr := tbl.Manager()
	tx := mgr.Begin()
	abort := func(err error) (float64, error) {
		if aerr := mgr.Abort(tx); aerr != nil {
			return 0, fmt.Errorf("%w (abort failed: %v)", err, aerr)
		}
		return 0, err
	}

	res, err := e.Run(exec.Query{Predicates: []exec.Predicate{
		{Column: OLWarehouseID, Op: exec.Eq, Value: value.NewInt(int64(warehouse))},
		{Column: OLDistrictID, Op: exec.Eq, Value: value.NewInt(int64(district))},
		{Column: OLOrderID, Op: exec.Eq, Value: value.NewInt(int64(order))},
	}}, tx)
	if err != nil {
		return abort(err)
	}

	var amount float64
	for _, id := range res.IDs {
		row, err := e.Reconstruct(id)
		if err != nil {
			return abort(err)
		}
		amount += row[OLAmount].Float()
		row[OLDeliveryDate] = value.NewInt(date)
		if err := tbl.Update(tx, id, row); err != nil {
			return abort(err)
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		return 0, err
	}
	return amount, nil
}

// CHQuery19 runs the CH-benCHmark query #19 equivalent over ORDERLINE:
// revenue = sum(ol_amount) for lines of a warehouse whose item joins a
// filtered item set and whose quantity lies in [qlo, qhi]. With the
// paper's warehouse count, the quantity predicate qualifies ~5 % of a
// warehouse's lines and — under w = 0.2 — executes against a tiered
// column, the paper's 6.7x slowdown case.
func CHQuery19(tbl *table.Table, e *exec.Executor, warehouse int, qlo, qhi int64, items map[value.Value][]table.RowID) (float64, error) {
	res, err := e.Run(exec.Query{Predicates: []exec.Predicate{
		{Column: OLWarehouseID, Op: exec.Eq, Value: value.NewInt(int64(warehouse))},
		{Column: OLQuantity, Op: exec.Between, Value: value.NewInt(qlo), Hi: value.NewInt(qhi)},
	}}, nil)
	if err != nil {
		return 0, err
	}
	ids := res.IDs
	if items != nil {
		pairs, err := e.JoinProbe(OLItemID, ids, items)
		if err != nil {
			return 0, err
		}
		ids = ids[:0]
		for _, p := range pairs {
			ids = append(ids, p[0])
		}
	}
	return e.Sum(OLAmount, ids)
}

// ItemSchema returns the (scaled) TPC-C ITEM schema used as the join
// build side of CH query #19.
func ItemSchema() *schema.Schema {
	return schema.MustNew([]schema.Field{
		{Name: "i_id", Type: value.Int64},
		{Name: "i_price", Type: value.Float64},
		{Name: "i_data", Type: value.String, Width: 24},
	})
}

// BuildItems creates the ITEM table (always fully DRAM-resident; it is
// small and hot).
func BuildItems(cfg Config, opts table.Options) (*table.Table, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	tbl, err := table.New("ITEM", ItemSchema(), opts)
	if err != nil {
		return nil, err
	}
	rows := make([][]value.Value, cfg.Items)
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(i + 1)),
			value.NewFloat(float64(100+rng.Intn(9900)) / 100),
			value.NewString(fmt.Sprintf("item-%08d", rng.Intn(1e8))),
		}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		return nil, err
	}
	if err := tbl.Merge(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// ItemJoinMap builds the hash map over a subset of items (those matching
// CH-Q19's item filters; fraction selects the share kept).
func ItemJoinMap(items *table.Table, e *exec.Executor, fraction float64) (map[value.Value][]table.RowID, error) {
	n := items.MainRows()
	keep := int(float64(n) * fraction)
	if keep < 1 {
		keep = 1
	}
	ids := make([]table.RowID, 0, keep)
	for r := 0; r < n && len(ids) < keep; r++ {
		ids = append(ids, table.RowID(r))
	}
	return e.BuildJoinMap(0, ids)
}
