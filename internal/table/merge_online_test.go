package table

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// ---------------------------------------------------------------------------
// Property: an online merge running under concurrent readers and writers
// leaves the table with exactly the content the blocking reference merge
// (MergeOffline) produces from the same committed operations.
// ---------------------------------------------------------------------------

// randomSchema draws a 2-5 column schema; column 0 is always an Int64
// logical key the ops address rows by.
func randomSchema(rng *rand.Rand) *schema.Schema {
	n := 2 + rng.Intn(4)
	fields := []schema.Field{{Name: "k", Type: value.Int64}}
	for i := 1; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			fields = append(fields, schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Int64})
		case 1:
			fields = append(fields, schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Float64})
		default:
			fields = append(fields, schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.String, Width: 8})
		}
	}
	return schema.MustNew(fields)
}

// randomTuple builds a row for s with the given key in column 0.
func randomTuple(rng *rand.Rand, s *schema.Schema, key int64) []value.Value {
	row := make([]value.Value, s.Len())
	row[0] = value.NewInt(key)
	for c := 1; c < s.Len(); c++ {
		switch s.Field(c).Type {
		case value.Int64:
			row[c] = value.NewInt(int64(rng.Intn(1000)))
		case value.Float64:
			row[c] = value.NewFloat(float64(rng.Intn(1000)) / 8)
		default:
			row[c] = value.NewString(fmt.Sprintf("s%03d", rng.Intn(500)))
		}
	}
	return row
}

// mergeOp is one logical committed operation, addressed by key so it can
// be replayed identically against independent tables.
type mergeOp struct {
	kind  int // 0 insert, 1 delete, 2 update
	key   int64
	tuple []value.Value // insert/update payload
}

// randomOps draws nOps operations over the live-key set, mutating it.
// insertOnly restricts to inserts (safe to race with a merge swap, which
// renumbers RowIDs).
func randomOps(rng *rand.Rand, s *schema.Schema, live map[int64]bool, next *int64, nOps int, insertOnly bool) []mergeOp {
	ops := make([]mergeOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		kind := 0
		if !insertOnly && len(live) > 0 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0:
			key := *next
			*next++
			live[key] = true
			ops = append(ops, mergeOp{kind: 0, key: key, tuple: randomTuple(rng, s, key)})
		default:
			keys := make([]int64, 0, len(live))
			for k := range live {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			key := keys[rng.Intn(len(keys))]
			if kind == 1 {
				delete(live, key)
				ops = append(ops, mergeOp{kind: 1, key: key})
			} else {
				ops = append(ops, mergeOp{kind: 2, key: key, tuple: randomTuple(rng, s, key)})
			}
		}
	}
	return ops
}

// findByKey resolves a logical key to the RowID of its visible row at
// the latest commit (there is at most one: ops never insert a live
// duplicate).
func findByKey(tb testing.TB, tbl *Table, key int64) RowID {
	tb.Helper()
	v := tbl.Pin()
	defer v.Release()
	snap := tbl.Manager().LastCommit()
	total := v.MainRows() + v.FrozenRows() + v.ActiveRows()
	for id := 0; id < total; id++ {
		if !v.Visible(RowID(id), snap, 0) {
			continue
		}
		tuple, err := v.GetTuple(RowID(id))
		if err != nil {
			tb.Fatalf("GetTuple(%d): %v", id, err)
		}
		if tuple[0].Int() == key {
			return RowID(id)
		}
	}
	tb.Fatalf("key %d not found", key)
	return 0
}

// applyOps commits each op in its own transaction.
func applyOps(tb testing.TB, tbl *Table, ops []mergeOp) {
	tb.Helper()
	mgr := tbl.Manager()
	for _, op := range ops {
		tx := mgr.Begin()
		var err error
		switch op.kind {
		case 0:
			err = tbl.Insert(tx, op.tuple)
		case 1:
			err = tbl.Delete(tx, findByKey(tb, tbl, op.key))
		default:
			err = tbl.Update(tx, findByKey(tb, tbl, op.key), op.tuple)
		}
		if err != nil {
			tb.Fatalf("op %+v: %v", op, err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			tb.Fatalf("commit op %+v: %v", op, err)
		}
	}
}

// tableContent returns the sorted visible tuples at the latest commit,
// rendered as strings — the canonical form the equivalence property
// compares.
func tableContent(tb testing.TB, tbl *Table) []string {
	tb.Helper()
	v := tbl.Pin()
	defer v.Release()
	snap := tbl.Manager().LastCommit()
	total := v.MainRows() + v.FrozenRows() + v.ActiveRows()
	var out []string
	for id := 0; id < total; id++ {
		if !v.Visible(RowID(id), snap, 0) {
			continue
		}
		tuple, err := v.GetTuple(RowID(id))
		if err != nil {
			tb.Fatalf("GetTuple(%d): %v", id, err)
		}
		out = append(out, fmt.Sprint(tuple))
	}
	sort.Strings(out)
	return out
}

func contentEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newPropertyTable(tb testing.TB, name string, s *schema.Schema) *Table {
	tb.Helper()
	tbl, err := New(name, s, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestOnlineMergeEquivalenceProperty replays randomized committed
// workloads against two independent tables: one merges online while the
// operations (and background readers) run concurrently, the other
// applies the identical operations sequentially and merges with the
// blocking reference implementation. The visible contents must be
// identical. Trials rotate through three overlap modes:
//
//	mode 0 — no hooks: inserts race freely with the whole merge,
//	         including the swap;
//	mode 1 — the swap is gated until mixed inserts/deletes/updates have
//	         committed mid-rebuild, forcing the swap's delete-replay and
//	         straggler re-basing to reconcile all of them;
//	mode 2 — the rebuild is gated after the freeze while mixed ops
//	         commit against main + frozen + active, then insert-only ops
//	         race the rebuild and swap.
func TestOnlineMergeEquivalenceProperty(t *testing.T) {
	trials := 210
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			runEquivalenceTrial(t, trial)
		})
	}
}

func runEquivalenceTrial(t *testing.T, trial int) {
	rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
	s := randomSchema(rng)
	onl := newPropertyTable(t, "onl", s)
	ref := newPropertyTable(t, "ref", s)

	// Seed both tables with the same bulk rows and fold them into main.
	live := make(map[int64]bool)
	next := int64(0)
	nSeed := 20 + rng.Intn(60)
	seed := make([][]value.Value, nSeed)
	for i := range seed {
		seed[i] = randomTuple(rng, s, next)
		live[next] = true
		next++
	}
	for _, tbl := range []*Table{onl, ref} {
		if err := tbl.BulkAppend(seed); err != nil {
			t.Fatal(err)
		}
	}
	layout := make([]bool, s.Len())
	for c := range layout {
		layout[c] = rng.Intn(2) == 0
	}
	if err := onl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if err := ref.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		if err := onl.CreateIndex(0); err != nil {
			t.Fatal(err)
		}
		if err := ref.CreateIndex(0); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-merge ops, identical and sequential on both tables.
	pre := randomOps(rng, s, live, &next, 5+rng.Intn(15), false)
	applyOps(t, onl, pre)
	applyOps(t, ref, pre)

	// Background readers hammer the online table across the merge.
	stopReaders := make(chan struct{})
	readerErr := make(chan error, 4)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				v := onl.Pin()
				snap := onl.Manager().LastCommit()
				total := v.MainRows() + v.FrozenRows() + v.ActiveRows()
				for id := 0; id < total; id++ {
					if !v.Visible(RowID(id), snap, 0) {
						continue
					}
					if _, err := v.GetTuple(RowID(id)); err != nil {
						v.Release()
						select {
						case readerErr <- err:
						default:
						}
						return
					}
				}
				v.Release()
			}
		}()
	}

	mode := trial % 3
	mergeDone := make(chan error, 1)
	switch mode {
	case 0:
		concurrent := randomOps(rng, s, live, &next, 10+rng.Intn(20), true)
		go func() { mergeDone <- onl.Merge() }()
		applyOps(t, onl, concurrent)
		if err := <-mergeDone; err != nil {
			t.Fatalf("online merge: %v", err)
		}
		applyOps(t, ref, concurrent)
	case 1:
		gate := make(chan struct{})
		onl.hookBeforeSwap = func() { <-gate }
		mixed := randomOps(rng, s, live, &next, 10+rng.Intn(20), false)
		go func() { mergeDone <- onl.Merge() }()
		// RowIDs stay stable until the gated swap, so deletes and
		// updates address rows safely while the rebuild runs.
		applyOps(t, onl, mixed)
		close(gate)
		if err := <-mergeDone; err != nil {
			t.Fatalf("online merge (gated swap): %v", err)
		}
		onl.hookBeforeSwap = nil
		applyOps(t, ref, mixed)
	default:
		frozen := make(chan struct{})
		resume := make(chan struct{})
		onl.hookAfterFreeze = func() { close(frozen); <-resume }
		mixed := randomOps(rng, s, live, &next, 5+rng.Intn(10), false)
		racing := randomOps(rng, s, live, &next, 5+rng.Intn(10), true)
		go func() { mergeDone <- onl.Merge() }()
		<-frozen
		// Mixed ops land on main + frozen + active while the rebuild
		// has not started; then insert-only ops race rebuild and swap.
		applyOps(t, onl, mixed)
		close(resume)
		applyOps(t, onl, racing)
		if err := <-mergeDone; err != nil {
			t.Fatalf("online merge (gated freeze): %v", err)
		}
		onl.hookAfterFreeze = nil
		applyOps(t, ref, mixed)
		applyOps(t, ref, racing)
	}
	close(stopReaders)
	readers.Wait()
	select {
	case err := <-readerErr:
		t.Fatalf("concurrent reader: %v", err)
	default:
	}

	if err := ref.MergeOffline(); err != nil {
		t.Fatalf("reference merge: %v", err)
	}
	got, want := tableContent(t, onl), tableContent(t, ref)
	if !contentEqual(got, want) {
		t.Fatalf("mode %d: online content (%d rows) != reference (%d rows)\nonline:    %v\nreference: %v",
			mode, len(got), len(want), got, want)
	}
	if n := len(got); onl.VisibleCount() != n || ref.VisibleCount() != n || n != len(live) {
		t.Fatalf("counts diverge: online %d, reference %d, content %d, live keys %d",
			onl.VisibleCount(), ref.VisibleCount(), n, len(live))
	}

	// A follow-up merge folds whatever the first one re-based or raced;
	// content must be invariant under it.
	if err := onl.Merge(); err != nil {
		t.Fatalf("follow-up merge: %v", err)
	}
	if after := tableContent(t, onl); !contentEqual(after, want) {
		t.Fatalf("content changed across follow-up merge:\nbefore: %v\nafter:  %v", want, after)
	}
	if d := deltaRows(onl); d != 0 {
		t.Fatalf("DeltaRows = %d after quiescent follow-up merge", d)
	}
}
