package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"

	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

const (
	tableName = "ol"
	districts = 10 // tpcc.Config's DistrictsPerWarehouse default
)

// scale sizes the generated ORDERLINE data. The full scale is fixed by
// the issue (≈300 k rows: one BulkLoad takes ≈5 s, 900 k rows take 5-8x
// longer and vary by 50 %); -smoke shrinks it so the tests stay fast.
type scale struct {
	Warehouses        int `json:"warehouses"`
	OrdersPerDistrict int `json:"orders_per_district"`
	Items             int `json:"items"`
}

var (
	fullScale  = scale{Warehouses: 10, OrdersPerDistrict: 300, Items: 10000}
	smokeScale = scale{Warehouses: 2, OrdersPerDistrict: 60, Items: 1000}
)

// dataset is the generated ORDERLINE table in two forms: the rows the
// program under test is loaded with, and pointer-light column arrays the
// oracle answers from by brute force.
type dataset struct {
	sc   scale
	seed int64
	rows [][]value.Value // see loadRows and dropRows

	n      int
	ints   [tpcc.OLQuantity + 1][]int64 // the eight integer columns, by schema position
	amount []float64
	dist   []string
	// orderStart[k] is the first row of order k (see orderIndex); an
	// order's lines are contiguous, so order k spans
	// orderStart[k]..orderStart[k+1].
	orderStart []int32
}

func generateRows(sc scale, seed int64) [][]value.Value {
	return tpcc.GenerateOrderLines(tpcc.Config{
		Warehouses: sc.Warehouses, OrdersPerDistrict: sc.OrdersPerDistrict, Items: sc.Items, Seed: seed,
	})
}

// loadRows returns the rows to load, generating them again if they
// were dropped.
func (ds *dataset) loadRows() [][]value.Value {
	if ds.rows == nil {
		ds.rows = generateRows(ds.sc, ds.seed)
	}
	return ds.rows
}

// dropRows lets go of the generated rows before a measured window: they
// are 120 MB of pointers the collector would otherwise scan during the
// window on the harness's behalf, not the program's. The oracle answers
// from the column arrays.
func (ds *dataset) dropRows() {
	ds.rows = nil
	runtime.GC()
}

func generate(sc scale, seed int64) *dataset {
	rows := generateRows(sc, seed)
	ds := &dataset{sc: sc, seed: seed, rows: rows, n: len(rows)}
	for c := range ds.ints {
		ds.ints[c] = make([]int64, ds.n)
	}
	ds.amount = make([]float64, ds.n)
	ds.dist = make([]string, ds.n)
	ds.orderStart = make([]int32, ds.orders()+1)
	prev := -1
	for i, r := range rows {
		for c := range ds.ints {
			ds.ints[c][i] = r[c].Int()
		}
		ds.amount[i] = r[tpcc.OLAmount].Float()
		ds.dist[i] = r[tpcc.OLDistInfo].Str()
		k := ds.orderIndex(int(r[tpcc.OLWarehouseID].Int()), int(r[tpcc.OLDistrictID].Int()), int(r[tpcc.OLOrderID].Int()))
		for prev < k {
			prev++
			ds.orderStart[prev] = int32(i)
		}
	}
	for prev < ds.orders() {
		prev++
		ds.orderStart[prev] = int32(ds.n)
	}
	return ds
}

// orders is the number of distinct (warehouse, district, order) keys.
func (ds *dataset) orders() int { return ds.sc.Warehouses * districts * ds.sc.OrdersPerDistrict }

// orderIndex numbers the order keys in generation order.
func (ds *dataset) orderIndex(w, d, o int) int {
	return ((w-1)*districts+(d-1))*ds.sc.OrdersPerDistrict + (o - 1)
}

// orderKey is the inverse of orderIndex.
func (ds *dataset) orderKey(k int) (w, d, o int) {
	o = k%ds.sc.OrdersPerDistrict + 1
	k /= ds.sc.OrdersPerDistrict
	return k/districts + 1, k%districts + 1, o
}

// answer is what the oracle compares of one Select: how many rows
// qualified, an order-independent hash of the projected rows, and the
// sum of ol_amount where it is projected.
type answer struct {
	count  int
	hash   uint64
	amount float64
}

var hashSeed = maphash.MakeSeed()

func hashValue(h *maphash.Hash, v value.Value) {
	var b [9]byte
	b[0] = byte(v.Type())
	switch v.Type() {
	case value.Int64:
		binary.LittleEndian.PutUint64(b[1:], uint64(v.Int()))
		h.Write(b[:])
	case value.Float64:
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.Float()))
		h.Write(b[:])
	default:
		h.WriteByte(b[0])
		h.WriteString(v.Str())
	}
}

// summarize reduces a Select's reply to an answer. project holds the
// schema positions of the projected columns.
func summarize(ids int, rows [][]value.Value, project []int) answer {
	a := answer{count: ids}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, r := range rows {
		h.Reset()
		for i, v := range r {
			hashValue(&h, v)
			if project[i] == tpcc.OLAmount {
				a.amount += v.Float()
			}
		}
		a.hash += h.Sum64() // commutative, so row order does not matter
	}
	return a
}

// cell is the generated value at (row, column).
func (ds *dataset) cell(row, col int) value.Value {
	switch col {
	case tpcc.OLAmount:
		return value.NewFloat(ds.amount[row])
	case tpcc.OLDistInfo:
		return value.NewString(ds.dist[row])
	default:
		return value.NewInt(ds.ints[col][row])
	}
}

// expect answers a read op by brute force over the generated columns.
// Inserted rows never qualify: their order ids lie above the loaded
// range and their delivery date is 0 (see ops.go), so the loaded rows
// are the whole answer in the write workloads too.
func (ds *dataset) expect(o *op, project []int) answer {
	var a answer
	var h maphash.Hash
	h.SetSeed(hashSeed)
	add := func(row int) {
		a.count++
		h.Reset()
		for _, c := range project {
			hashValue(&h, ds.cell(row, c))
			if c == tpcc.OLAmount {
				a.amount += ds.amount[row]
			}
		}
		a.hash += h.Sum64()
	}
	qty, date, supply := ds.ints[tpcc.OLQuantity], ds.ints[tpcc.OLDeliveryDate], ds.ints[tpcc.OLSupplyWarehouseID]
	switch o.kind {
	case opLookup, opLookupQty:
		k := ds.orderIndex(int(o.w), int(o.d), int(o.o))
		for row := int(ds.orderStart[k]); row < int(ds.orderStart[k+1]); row++ {
			if o.kind == opLookup || (qty[row] >= 1 && qty[row] <= lookupQtyHi) {
				add(row)
			}
		}
	case opQ6:
		for row := 0; row < ds.n; row++ {
			if date[row] >= o.lo && date[row] <= o.hi && qty[row] >= 1 && qty[row] <= scanQtyHi && supply[row] == int64(o.w) {
				add(row)
			}
		}
	case opDayScan:
		for row := 0; row < ds.n; row++ {
			if date[row] >= o.lo && date[row] <= o.hi && qty[row] >= 1 && qty[row] <= scanQtyHi {
				add(row)
			}
		}
	}
	return a
}

// mismatch describes how got differs from want, or returns "".
func mismatch(got, want answer) string {
	switch {
	case got.count != want.count:
		return fmt.Sprintf("%d ids, want %d", got.count, want.count)
	case got.hash != want.hash:
		return "projected rows differ"
	case math.Abs(got.amount-want.amount) > 1e-6*math.Max(1, math.Abs(want.amount)):
		return fmt.Sprintf("sum(ol_amount) %.2f, want %.2f", got.amount, want.amount)
	}
	return ""
}
