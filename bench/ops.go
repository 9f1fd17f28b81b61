package main

import (
	"fmt"
	"math/rand"
	"time"

	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

type opKind uint8

const (
	// opInsert appends one fresh order line.
	opInsert opKind = iota
	// opLookup is Eq(ol_o_id) AND Eq(ol_d_id) AND Eq(ol_w_id).
	opLookup
	// opLookupQty is opLookup AND Between(ol_quantity, 1, lookupQtyHi).
	opLookupQty
	// opQ6 is CH-Q6 shaped: Between(ol_delivery_d, lo, hi) AND
	// Between(ol_quantity, 1, scanQtyHi) AND Eq(ol_supply_w_id, w).
	opQ6
	// opDayScan is opQ6 without the warehouse predicate.
	opDayScan
)

const (
	lookupQtyHi = 5
	scanQtyHi   = 3
	q6Days      = 31
	// Delivered order lines carry a date in firstDay..firstDay+daysPerYear-1
	// (tpcc.GenerateOrderLines); undelivered ones, and every row this
	// benchmark inserts, carry 0.
	firstDay    = 20170000
	daysPerYear = 365
	// closedLoopMaxRate sizes a closed-loop worker's stream: more ops per
	// second than one connection gets answered on any machine this has
	// run on (about 12 k on the box it was written on). A run whose
	// worker uses its stream up all the same fails its checks.
	closedLoopMaxRate = 40_000
	// insertOrderStride separates the order ids the workers insert under.
	insertOrderStride = 1 << 24
)

func (k opKind) isWrite() bool { return k == opInsert }

// op is one pre-generated request. Insert payloads are kept as plain
// numbers and turned into a row when sent, which keeps a stream small
// enough that the garbage collector does not notice it.
type op struct {
	kind    opKind
	w, d, o int32
	lo, hi  int64 // delivery-date window
	number  int32
	item    int32
	qty     int32
	amount  float64
}

// mix describes a workload's traffic; every constant here is recorded
// in the result file.
type mix struct {
	// InsertFrac of the ops are inserts; the rest are the read kind(s).
	InsertFrac float64 `json:"insert_frac"`
	// Read selects the read ops: "lookup", "probe" (90 % lookup, 10 %
	// lookup with a quantity predicate; half Zipf, half uniform), "q6"
	// or "dayscan".
	Read string `json:"read"`
	// ZipfS is the skew of the Zipf half of "probe" lookups.
	ZipfS float64 `json:"zipf_s,omitempty"`
}

// streamLen is how many ops the worker needs for traffic of the given
// length.
func (spec workerSpec) streamLen(traffic time.Duration) int {
	rate := spec.Rate
	if rate == 0 {
		rate = closedLoopMaxRate
	}
	return int(rate*traffic.Seconds()) + 16
}

// genStream makes worker's stream of n ops. The same (seed, worker)
// gives the same stream, a longer one the same beginning; insert order ids lie above the loaded range
// and are disjoint per worker.
func genStream(ds *dataset, m mix, seed int64, worker, n int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7919 + 17))
	orders := ds.orders()
	var zipf *rand.Zipf
	if m.Read == "probe" {
		zipf = rand.NewZipf(rng, m.ZipfS, 1, uint64(orders-1))
	}
	ops := make([]op, n)
	inserted := 0
	for i := range ops {
		o := &ops[i]
		if rng.Float64() < m.InsertFrac {
			o.kind = opInsert
			// Ten lines per fresh order, orders spread over the districts.
			order := inserted / 10
			o.number = int32(inserted%10 + 1)
			o.o = int32(ds.sc.OrdersPerDistrict + 1 + worker*insertOrderStride + order/districts)
			o.d = int32(order%districts + 1)
			o.w = int32(rng.Intn(ds.sc.Warehouses) + 1)
			o.item = int32(rng.Intn(ds.sc.Items) + 1)
			o.qty = int32(rng.Intn(10) + 1)
			o.amount = float64(rng.Intn(999999)) / 100
			inserted++
			continue
		}
		switch m.Read {
		case "lookup":
			o.kind = opLookup
			o.setOrder(ds, rng.Intn(orders))
		case "probe":
			o.kind = opLookup
			if rng.Intn(10) == 0 {
				o.kind = opLookupQty
			}
			if rng.Intn(2) == 0 {
				// Scatter the popular ranks over the table, else they
				// would share a handful of SSCG pages.
				o.setOrder(ds, int(zipf.Uint64()*7919%uint64(orders)))
			} else {
				o.setOrder(ds, rng.Intn(orders))
			}
		case "q6":
			o.kind = opQ6
			o.w = int32(rng.Intn(ds.sc.Warehouses) + 1)
			o.lo = int64(firstDay + rng.Intn(daysPerYear-q6Days+1))
			o.hi = o.lo + q6Days - 1
		case "dayscan":
			o.kind = opDayScan
			o.lo = int64(firstDay + rng.Intn(daysPerYear))
			o.hi = o.lo
		}
	}
	return ops
}

func (o *op) setOrder(ds *dataset, k int) {
	w, d, ord := ds.orderKey(k)
	o.w, o.d, o.o = int32(w), int32(d), int32(ord)
}

var distInfo = func() [districts + 1]value.Value {
	var v [districts + 1]value.Value
	for d := range v {
		v[d] = value.NewString(fmt.Sprintf("dist-%02d-benchrow", d))
	}
	return v
}()

// row builds the order line an insert op carries.
func (o *op) row() []value.Value {
	return []value.Value{
		tpcc.OLOrderID:           value.NewInt(int64(o.o)),
		tpcc.OLDistrictID:        value.NewInt(int64(o.d)),
		tpcc.OLWarehouseID:       value.NewInt(int64(o.w)),
		tpcc.OLNumber:            value.NewInt(int64(o.number)),
		tpcc.OLItemID:            value.NewInt(int64(o.item)),
		tpcc.OLSupplyWarehouseID: value.NewInt(int64(o.w)),
		tpcc.OLDeliveryDate:      value.NewInt(0),
		tpcc.OLQuantity:          value.NewInt(int64(o.qty)),
		tpcc.OLAmount:            value.NewFloat(o.amount),
		tpcc.OLDistInfo:          distInfo[o.d],
	}
}

// pred is one conjunct of a read op, in a form both the wire client and
// the in-process table API can be fed from.
type pred struct {
	col    int
	lo, hi int64 // lo == hi and !rng means equality
	rng    bool
}

// preds lists a read op's conjuncts.
func (o *op) preds(buf []pred) []pred {
	buf = buf[:0]
	switch o.kind {
	case opLookup, opLookupQty:
		buf = append(buf,
			pred{col: tpcc.OLOrderID, lo: int64(o.o)},
			pred{col: tpcc.OLDistrictID, lo: int64(o.d)},
			pred{col: tpcc.OLWarehouseID, lo: int64(o.w)})
		if o.kind == opLookupQty {
			buf = append(buf, pred{col: tpcc.OLQuantity, lo: 1, hi: lookupQtyHi, rng: true})
		}
	case opQ6, opDayScan:
		buf = append(buf,
			pred{col: tpcc.OLDeliveryDate, lo: o.lo, hi: o.hi, rng: true},
			pred{col: tpcc.OLQuantity, lo: 1, hi: scanQtyHi, rng: true})
		if o.kind == opQ6 {
			buf = append(buf, pred{col: tpcc.OLSupplyWarehouseID, lo: int64(o.w)})
		}
	}
	return buf
}
