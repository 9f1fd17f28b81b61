package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"tierdb/internal/device"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// newTable builds a table with n rows over columns (id, a, b, c) where
// a = id%10, b = id%100, c = id%1000, optionally evicting columns.
func newTable(t *testing.T, n int, layout []bool) (*table.Table, *storage.Clock) {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
		{Name: "c", Type: value.Int64},
	})
	clock := &storage.Clock{}
	store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	tbl, err := table.New("t", s, table.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 10)),
			value.NewInt(int64(i % 100)),
			value.NewInt(int64(i % 1000)),
		}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if layout == nil {
		layout = []bool{true, true, true, true}
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	return tbl, clock
}

// bruteForce evaluates the query by scanning every visible row.
func bruteForce(t *testing.T, tbl *table.Table, q Query) []table.RowID {
	t.Helper()
	return visibleRows(t, tbl).match(q)
}

// oracle is every row of a table visible at its last commit, read once,
// which the brute-force answer of any number of queries filters.
type oracle struct {
	ids  []table.RowID
	rows [][]value.Value
}

// visibleRows reads tbl's rows visible at its last commit.
func visibleRows(t *testing.T, tbl *table.Table) oracle {
	t.Helper()
	snapshot := tbl.Manager().LastCommit()
	view := tbl.Pin()
	defer view.Release()
	var o oracle
	for r := 0; r < view.MainRows()+view.FrozenRows()+view.ActiveRows(); r++ {
		id := table.RowID(r)
		if !view.Visible(id, snapshot, 0) {
			continue
		}
		row, err := view.GetTuple(id)
		if err != nil {
			t.Fatal(err)
		}
		o.ids, o.rows = append(o.ids, id), append(o.rows, row)
	}
	return o
}

// match returns the ids of the rows every predicate of q accepts.
func (o oracle) match(q Query) []table.RowID {
	var out []table.RowID
	for i, row := range o.rows {
		ok := true
		for _, p := range q.Predicates {
			v := row[p.Column]
			switch p.Op {
			case Eq:
				ok = ok && v.Equal(p.Value)
			case Between:
				ok = ok && v.Compare(p.Value) >= 0 && v.Compare(p.Hi) <= 0
			}
		}
		if ok {
			out = append(out, o.ids[i])
		}
	}
	return out
}

func sameIDs(a, b []table.RowID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[table.RowID]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

func TestSinglePredicateAllLayouts(t *testing.T) {
	layouts := map[string][]bool{
		"all DRAM":   {true, true, true, true},
		"a evicted":  {true, false, true, true},
		"all but id": {true, false, false, false},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			tbl, _ := newTable(t, 1000, layout)
			e := New(tbl, Options{})
			q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}
			res, err := e.Run(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(t, tbl, q)
			if !sameIDs(res.IDs, want) {
				t.Errorf("got %d rows, want %d", len(res.IDs), len(want))
			}
		})
	}
}

func TestConjunctionMatchesBruteForce(t *testing.T) {
	for _, layout := range [][]bool{
		{true, true, true, true},
		{true, true, false, true},
		{true, false, false, false},
	} {
		tbl, _ := newTable(t, 2000, layout)
		e := New(tbl, Options{})
		q := Query{Predicates: []Predicate{
			{Column: 1, Op: Eq, Value: value.NewInt(7)},
			{Column: 2, Op: Eq, Value: value.NewInt(17)},
			{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(600)},
		}}
		res, err := e.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, tbl, q)
		if !sameIDs(res.IDs, want) {
			t.Errorf("layout %v: got %d rows, want %d", layout, len(res.IDs), len(want))
		}
	}
}

func TestNoPredicatesReturnsAllRows(t *testing.T) {
	tbl, _ := newTable(t, 100, nil)
	e := New(tbl, Options{})
	res, err := e.Run(Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 100 {
		t.Errorf("got %d rows, want 100", len(res.IDs))
	}
}

func TestQueryValidation(t *testing.T) {
	tbl, _ := newTable(t, 10, nil)
	e := New(tbl, Options{})
	if _, err := e.Run(Query{Predicates: []Predicate{{Column: 9, Op: Eq, Value: value.NewInt(0)}}}, nil); err == nil {
		t.Error("bad predicate column accepted")
	}
	if _, err := e.Run(Query{Predicates: []Predicate{{Column: 0, Op: Op(9), Value: value.NewInt(0)}}}, nil); err == nil {
		t.Error("bad operator accepted")
	}
	if _, err := e.Run(Query{Project: []int{9}}, nil); err == nil {
		t.Error("bad projection accepted")
	}
	q := Query{Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(1)},
		{Column: 2, Op: Eq, Value: value.NewString("wrong")},
	}}
	if _, err := e.Run(q, nil); err == nil {
		t.Error("type-mismatched second predicate accepted")
	}
}

func TestDeltaRowsIncluded(t *testing.T) {
	tbl, _ := newTable(t, 100, []bool{true, false, true, true})
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, []value.Value{
		value.NewInt(5000), value.NewInt(3), value.NewInt(3), value.NewInt(3),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}
	res, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(t, tbl, q)
	if !sameIDs(res.IDs, want) {
		t.Errorf("got %d rows, want %d (incl. delta)", len(res.IDs), len(want))
	}
	foundDelta := false
	for _, id := range res.IDs {
		if id >= uint64(tbl.MainRows()) {
			foundDelta = true
		}
	}
	if !foundDelta {
		t.Error("delta row missing from result")
	}
}

func TestUncommittedInvisibleToOthers(t *testing.T) {
	tbl, _ := newTable(t, 50, nil)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, []value.Value{
		value.NewInt(999), value.NewInt(1), value.NewInt(1), value.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	// Another reader does not see the uncommitted row.
	q := Query{Predicates: []Predicate{{Column: 0, Op: Eq, Value: value.NewInt(999)}}}
	res, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Error("uncommitted row visible to other reader")
	}
	// The writing transaction sees it.
	res, err = e.Run(q, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Error("writer cannot see own insert")
	}
}

// mustPlan plans a query over preds against the pinned view.
func mustPlan(t *testing.T, e *Executor, v *table.View, preds []Predicate) []step {
	t.Helper()
	steps, err := e.plan(v, Query{Predicates: preds}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func TestIndexPathUsedFirst(t *testing.T) {
	tbl, _ := newTable(t, 1000, []bool{true, true, true, false})
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	q := Query{Predicates: []Predicate{
		{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(999)},
		{Column: 0, Op: Eq, Value: value.NewInt(123)},
	}}
	res, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 123 {
		t.Errorf("res = %v", res.IDs)
	}
	// Ordering: the indexed predicate must come first.
	v := tbl.Pin()
	defer v.Release()
	ordered := mustPlan(t, e, v, q.Predicates)
	if ordered[0].pred.Column != 0 {
		t.Errorf("indexed predicate not first: %v", ordered[0].pred)
	}
}

func TestPredicateOrderingLocationBeforeSelectivity(t *testing.T) {
	// Column b (sel 1/100) is evicted; column a (sel 1/10) stays in
	// DRAM. Per the paper, DRAM-resident a must run first despite its
	// worse selectivity.
	tbl, _ := newTable(t, 1000, []bool{true, true, false, true})
	e := New(tbl, Options{})
	preds := []Predicate{
		{Column: 2, Op: Eq, Value: value.NewInt(1)}, // evicted, sel 0.01
		{Column: 1, Op: Eq, Value: value.NewInt(1)}, // DRAM, sel 0.1
	}
	v := tbl.Pin()
	defer v.Release()
	ordered := mustPlan(t, e, v, preds)
	if ordered[0].pred.Column != 1 {
		t.Errorf("DRAM-resident predicate not first: column %d", ordered[0].pred.Column)
	}
	// Within one location, ascending selectivity: id (sel 1/1000)
	// before a (sel 1/10).
	preds = []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(1)},
		{Column: 0, Op: Eq, Value: value.NewInt(1)},
	}
	ordered = mustPlan(t, e, v, preds)
	if ordered[0].pred.Column != 0 {
		t.Errorf("most selective DRAM predicate not first: column %d", ordered[0].pred.Column)
	}
}

func TestScanVsProbeConsistency(t *testing.T) {
	// Whatever path the executor picks (scan or probe on the tiered
	// column), results must match brute force. Use a first predicate
	// selective enough to trigger probing.
	tbl, _ := newTable(t, 20000, []bool{true, true, true, false})
	e := New(tbl, Options{})
	q := Query{Predicates: []Predicate{
		{Column: 0, Op: Eq, Value: value.NewInt(777)}, // sel 1/20000 < threshold
		{Column: 3, Op: Eq, Value: value.NewInt(777)},
	}}
	res, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(t, tbl, q)
	if !sameIDs(res.IDs, want) {
		t.Errorf("probe path: got %v, want %v", res.IDs, want)
	}
}

func TestProbingCheaperThanScanningTieredColumn(t *testing.T) {
	// With a highly selective DRAM predicate first, the tiered column
	// is probed (few page reads); forcing scan-first order would read
	// every page. Compare virtual clocks.
	layout := []bool{true, true, true, false}

	tblProbe, clockProbe := newTable(t, 50000, layout)
	e := New(tblProbe, Options{Clock: clockProbe})
	q := Query{Predicates: []Predicate{
		{Column: 0, Op: Eq, Value: value.NewInt(123)},
		{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(500)},
	}}
	clockProbe.Reset()
	if _, err := e.Run(q, nil); err != nil {
		t.Fatal(err)
	}
	probeReads := clockProbe.Reads()

	tblScan, clockScan := newTable(t, 50000, layout)
	e2 := New(tblScan, Options{Clock: clockScan})
	clockScan.Reset()
	// Single tiered predicate: must scan all pages.
	if _, err := e2.Run(Query{Predicates: []Predicate{
		{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(500)},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	scanReads := clockScan.Reads()
	if probeReads >= scanReads/10 {
		t.Errorf("probing used %d page reads, scanning %d; expected >10x gap", probeReads, scanReads)
	}
}

func TestMaterializeProjection(t *testing.T) {
	tbl, _ := newTable(t, 500, []bool{true, false, false, true})
	e := New(tbl, Options{})
	q := Query{
		Predicates: []Predicate{{Column: 0, Op: Between, Value: value.NewInt(10), Hi: value.NewInt(12)}},
		Project:    []int{0, 1, 2, 3},
	}
	res, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i, id := range res.IDs {
		want := int64(id)
		row := res.Rows[i]
		if row[0].Int() != want || row[1].Int() != want%10 || row[2].Int() != want%100 || row[3].Int() != want%1000 {
			t.Errorf("row %d = %v", id, row)
		}
	}
}

func TestReconstructMatchesGetTuple(t *testing.T) {
	tbl, clock := newTable(t, 300, []bool{true, false, false, false})
	e := New(tbl, Options{Clock: clock})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		id := table.RowID(rng.Intn(300))
		got, err := e.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]value.Value, len(got))
		for c := range want {
			if want[c], err = tbl.GetValue(id, c); err != nil {
				t.Fatal(err)
			}
		}
		for c := range want {
			if !got[c].Equal(want[c]) {
				t.Errorf("row %d col %d: %v != %v", id, c, got[c], want[c])
			}
		}
	}
	if clock.Elapsed() == 0 {
		t.Error("reconstruction charged no time")
	}
}

func TestSumAndJoin(t *testing.T) {
	tbl, _ := newTable(t, 100, nil)
	e := New(tbl, Options{})
	ids := []table.RowID{0, 1, 2, 3}
	got, err := e.Sum(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0+1+2+3 {
		t.Errorf("Sum = %g, want 6", got)
	}
	if _, err := e.Sum(0, nil); err != nil {
		t.Errorf("empty sum: %v", err)
	}

	build, err := e.BuildJoinMap(1, []table.RowID{0, 1, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := e.JoinProbe(1, []table.RowID{20, 21}, build)
	if err != nil {
		t.Fatal(err)
	}
	// a(20)=0 matches rows 0 and 10; a(21)=1 matches rows 1 and 11.
	if len(pairs) != 4 {
		t.Errorf("join pairs = %v", pairs)
	}
}

func TestSumStringColumnFails(t *testing.T) {
	s := schema.MustNew([]schema.Field{{Name: "s", Type: value.String, Width: 4}})
	tbl, err := table.New("t", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	if _, err := e.Sum(0, nil); err == nil {
		t.Error("summing strings accepted")
	}
}

func TestResultsDeterministicAcrossRuns(t *testing.T) {
	tbl, _ := newTable(t, 3000, []bool{true, false, true, false})
	e := New(tbl, Options{})
	q := Query{Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(4)},
		{Column: 3, Op: Between, Value: value.NewInt(100), Hi: value.NewInt(400)},
	}}
	first, err := e.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := e.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(first.IDs) != fmt.Sprint(again.IDs) {
			t.Fatalf("run %d differs: %v vs %v", i, first.IDs, again.IDs)
		}
	}
}

func TestHistogramDrivenRangeOrdering(t *testing.T) {
	// Column b has 100 distinct values; a narrow range on it is far
	// more selective than a wide range on column c (1000 distinct).
	// Histogram-based estimation must order the narrow range first,
	// while the plain 1/distinct estimate would prefer column c.
	tbl, _ := newTable(t, 10000, nil)
	e := New(tbl, Options{})
	narrowOnB := Predicate{Column: 2, Op: Between, Value: value.NewInt(10), Hi: value.NewInt(11)}
	wideOnC := Predicate{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(900)}
	v := tbl.Pin()
	defer v.Release()
	ordered := mustPlan(t, e, v, []Predicate{wideOnC, narrowOnB})
	if ordered[0].pred.Column != 2 {
		t.Errorf("narrow range not ordered first: got column %d", ordered[0].pred.Column)
	}
	selNarrow, selWide := ordered[0].sel, ordered[1].sel
	if selNarrow >= selWide {
		t.Errorf("selectivity estimates inverted: narrow %g vs wide %g", selNarrow, selWide)
	}
	// Rough accuracy: narrow range matches 2% of rows.
	if selNarrow < 0.005 || selNarrow > 0.06 {
		t.Errorf("narrow estimate %g far from true 0.02", selNarrow)
	}
}

func TestGroupBySum(t *testing.T) {
	tbl, _ := newTable(t, 100, nil)
	e := New(tbl, Options{})
	ids := make([]table.RowID, 100)
	for i := range ids {
		ids[i] = table.RowID(i)
	}
	// Group by a (= id%10), sum id: each group holds ids g, g+10, ...
	groups, err := e.GroupBySum(1, 0, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d, want 10", len(groups))
	}
	for g := int64(0); g < 10; g++ {
		want := float64(0)
		for i := g; i < 100; i += 10 {
			want += float64(i)
		}
		if got := groups[value.NewInt(g)]; got != want {
			t.Errorf("group %d sum = %g, want %g", g, got, want)
		}
	}
	if _, err := e.GroupBySum(0, 3, nil); err != nil {
		t.Errorf("empty ids: %v", err)
	}
}

func TestGroupBySumStringAggregateFails(t *testing.T) {
	s := schema.MustNew([]schema.Field{
		{Name: "g", Type: value.Int64},
		{Name: "s", Type: value.String, Width: 4},
	})
	tbl, err := table.New("t", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	if _, err := e.GroupBySum(0, 1, nil); err == nil {
		t.Error("string aggregate accepted")
	}
}
