package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/device"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// randCell produces the k-th domain value of column c; every column
// draws its cells from a small domain so predicates actually match.
func randCell(f schema.Field, k int) value.Value {
	switch f.Type {
	case value.Int64:
		return value.NewInt(int64(k))
	case value.Float64:
		return value.NewFloat(float64(k) * 0.5)
	default:
		return value.NewString(fmt.Sprintf("v%02d", k%100))
	}
}

// randomTable builds a table with a random schema (2–6 columns of mixed
// types), random contents, a random column placement (including
// all-tiered), an optional index, plus committed delta inserts and
// committed deletes, so parallel scans face real MVCC state.
func randomTable(t *testing.T, rng *rand.Rand) (*table.Table, *storage.Clock, []int) {
	t.Helper()
	nCols := 2 + rng.Intn(5)
	fields := make([]schema.Field, nCols)
	card := make([]int, nCols)
	for c := range fields {
		name := fmt.Sprintf("c%d", c)
		switch rng.Intn(3) {
		case 0:
			fields[c] = schema.Field{Name: name, Type: value.Int64}
		case 1:
			fields[c] = schema.Field{Name: name, Type: value.Float64}
		default:
			fields[c] = schema.Field{Name: name, Type: value.String, Width: 4 + rng.Intn(8)}
		}
		card[c] = 1 + rng.Intn(50)
	}
	clock := &storage.Clock{}
	store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	opts := table.Options{Store: store}
	if rng.Intn(2) == 0 {
		cache, err := amm.New(16+rng.Intn(64), store)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	tbl, err := table.New("t", schema.MustNew(fields), opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 200 + rng.Intn(2800)
	rows := make([][]value.Value, n)
	for i := range rows {
		row := make([]value.Value, nCols)
		for c, f := range fields {
			row[c] = randCell(f, rng.Intn(card[c]))
		}
		rows[i] = row
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	layout := make([]bool, nCols)
	allTiered := rng.Intn(4) == 0
	for c := range layout {
		layout[c] = !allTiered && rng.Intn(2) == 0
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(3) == 0 {
		if err := tbl.CreateIndex(rng.Intn(nCols)); err != nil {
			t.Fatal(err)
		}
	}
	mgr := tbl.Manager()
	// Committed delta inserts.
	tx := mgr.Begin()
	for i := 0; i < rng.Intn(20); i++ {
		row := make([]value.Value, nCols)
		for c, f := range fields {
			row[c] = randCell(f, rng.Intn(card[c]))
		}
		if err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Committed deletes of random main rows.
	tx = mgr.Begin()
	for i := 0; i < rng.Intn(20); i++ {
		if err := tbl.Delete(tx, table.RowID(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return tbl, clock, card
}

// randomQuery draws 0–3 type-correct predicates and a random projection
// over the table's columns.
func randomQuery(rng *rand.Rand, tbl *table.Table, card []int) Query {
	fields := tbl.Schema().Fields()
	var q Query
	for i := rng.Intn(4); i > 0; i-- {
		c := rng.Intn(len(fields))
		p := Predicate{Column: c}
		if rng.Intn(2) == 0 {
			p.Op = Eq
			p.Value = randCell(fields[c], rng.Intn(card[c]))
		} else {
			p.Op = Between
			lo := randCell(fields[c], rng.Intn(card[c]))
			hi := randCell(fields[c], rng.Intn(card[c]))
			if lo.Compare(hi) > 0 {
				lo, hi = hi, lo
			}
			p.Value, p.Hi = lo, hi
		}
		q.Predicates = append(q.Predicates, p)
	}
	if rng.Intn(2) == 0 {
		for c := range fields {
			if rng.Intn(2) == 0 {
				q.Project = append(q.Project, c)
			}
		}
	}
	return q
}

// TestParallelEqualsSerialProperty is the equivalence property test of
// the morsel-driven executor: over randomized schemas, placements,
// MVCC states and predicates, every parallelism level must return
// exactly the serial result — same IDs in the same order, and the same
// projected rows.
func TestParallelEqualsSerialProperty(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tbl, _, card := randomTable(t, rng)
		serial := New(tbl, Options{})
		for query := 0; query < 4; query++ {
			q := randomQuery(rng, tbl, card)
			want, err := serial.Run(q, nil)
			if err != nil {
				t.Fatalf("trial %d query %d serial: %v", trial, query, err)
			}
			for _, par := range []int{2, 4, 8} {
				e := New(tbl, Options{Parallelism: par, MorselRows: 64 << rng.Intn(6)})
				got, err := e.Run(q, nil)
				if err != nil {
					t.Fatalf("trial %d query %d par %d: %v", trial, query, par, err)
				}
				if len(got.IDs) != len(want.IDs) {
					t.Fatalf("trial %d query %d par %d: %d ids, serial %d (query %+v)",
						trial, query, par, len(got.IDs), len(want.IDs), q)
				}
				for i := range want.IDs {
					if got.IDs[i] != want.IDs[i] {
						t.Fatalf("trial %d query %d par %d: id[%d] = %d, serial %d",
							trial, query, par, i, got.IDs[i], want.IDs[i])
					}
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("trial %d query %d par %d: %d rows, serial %d",
						trial, query, par, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					for j := range want.Rows[i] {
						if !got.Rows[i][j].Equal(want.Rows[i][j]) {
							t.Fatalf("trial %d query %d par %d: row %d col %d = %v, serial %v",
								trial, query, par, i, j, got.Rows[i][j], want.Rows[i][j])
						}
					}
				}
			}
		}
	}
}

// TestParallelAgainstBruteForce cross-checks the parallel executor
// against the row-at-a-time oracle on the fixed-schema table.
func TestParallelAgainstBruteForce(t *testing.T) {
	for _, layout := range [][]bool{
		{true, true, true, true},
		{true, false, true, false},
		{false, false, false, false},
	} {
		tbl, _ := newTable(t, 5000, layout)
		e := New(tbl, Options{Parallelism: 4, MorselRows: 512})
		for _, q := range []Query{
			{},
			{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}},
			{Predicates: []Predicate{
				{Column: 1, Op: Eq, Value: value.NewInt(7)},
				{Column: 3, Op: Between, Value: value.NewInt(100), Hi: value.NewInt(700)},
			}},
			{Predicates: []Predicate{
				{Column: 0, Op: Eq, Value: value.NewInt(777)}, // selective: probe path
				{Column: 3, Op: Eq, Value: value.NewInt(777)},
			}},
		} {
			res, err := e.Run(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(t, tbl, q)
			if !sameIDs(res.IDs, want) {
				t.Errorf("layout %v query %+v: got %d rows, want %d", layout, q, len(res.IDs), len(want))
			}
		}
	}
}

// TestParallelVisibilityUnderConcurrentWriters runs parallel scans
// while writer transactions concurrently insert into the delta and
// delete main rows: every scan must observe a consistent snapshot
// (uncommitted rows invisible) and never error or race.
func TestParallelVisibilityUnderConcurrentWriters(t *testing.T) {
	tbl, _ := newTable(t, 20000, []bool{true, true, true, false})
	e := New(tbl, Options{Parallelism: 4})
	mgr := tbl.Manager()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := mgr.Begin()
			_ = tbl.Insert(tx, []value.Value{
				value.NewInt(int64(100000 + i)), value.NewInt(3),
				value.NewInt(int64(i % 100)), value.NewInt(int64(i % 1000)),
			})
			_ = tbl.Delete(tx, table.RowID(i%20000))
			if i%2 == 0 {
				_, _ = mgr.Commit(tx)
			} else {
				_ = mgr.Abort(tx)
			}
		}
	}()
	q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}
	for i := 0; i < 50; i++ {
		res, err := e.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(res.IDs); j++ {
			if res.IDs[j] <= res.IDs[j-1] {
				t.Fatalf("result not strictly ascending at %d: %d, %d", j, res.IDs[j-1], res.IDs[j])
			}
		}
	}
	close(stop)
	<-done
}

// TestParallelModeledSpeedup checks the cost model end to end: with
// max-per-worker wall-time charging and DRAM bandwidth that scales with
// streams, a 4-worker MRC scan must finish in less modeled time than
// the serial scan of the same data.
func TestParallelModeledSpeedup(t *testing.T) {
	tbl, clock := newTable(t, 200000, []bool{true, true, true, true})
	q := Query{Predicates: []Predicate{{Column: 2, Op: Between, Value: value.NewInt(10), Hi: value.NewInt(60)}}}

	elapsed := func(par int) time.Duration {
		e := New(tbl, Options{Clock: clock, Parallelism: par})
		clock.Reset()
		if _, err := e.Run(q, nil); err != nil {
			t.Fatal(err)
		}
		return clock.Elapsed()
	}
	serial := elapsed(1)
	parallel := elapsed(4)
	if parallel >= serial {
		t.Errorf("modeled time did not drop: serial %v, 4 workers %v", serial, parallel)
	}
	if float64(serial)/float64(parallel) < 2 {
		t.Errorf("modeled speedup %.2fx < 2x (serial %v, parallel %v)",
			float64(serial)/float64(parallel), serial, parallel)
	}
}
