package bptree

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tierdb/internal/value"
)

func TestInsertLookupSmall(t *testing.T) {
	tr := New(value.Int64)
	tr.Insert(value.NewInt(5), 50)
	tr.Insert(value.NewInt(3), 30)
	tr.Insert(value.NewInt(5), 51)
	if got := tr.Lookup(value.NewInt(5)); len(got) != 2 || got[0] != 50 || got[1] != 51 {
		t.Errorf("Lookup(5) = %v", got)
	}
	if got := tr.Lookup(value.NewInt(3)); len(got) != 1 || got[0] != 30 {
		t.Errorf("Lookup(3) = %v", got)
	}
	if got := tr.Lookup(value.NewInt(9)); got != nil {
		t.Errorf("Lookup(9) = %v, want nil", got)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	if tr.Type() != value.Int64 {
		t.Error("Type mismatch")
	}
}

func TestInsertManySplits(t *testing.T) {
	tr := New(value.Int64)
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tr.Insert(value.NewInt(int64(k)), uint32(k))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for k := 0; k < n; k += 97 {
		got := tr.Lookup(value.NewInt(int64(k)))
		if len(got) != 1 || got[0] != uint32(k) {
			t.Fatalf("Lookup(%d) = %v", k, got)
		}
	}
}

func TestRangeAscendingOrder(t *testing.T) {
	tr := New(value.Int64)
	keys := []int64{40, 10, 30, 20, 50, 15}
	for i, k := range keys {
		tr.Insert(value.NewInt(k), uint32(i))
	}
	var got []int64
	tr.Range(value.NewInt(12), value.NewInt(40), func(k value.Value, pos []uint32) bool {
		got = append(got, k.Int())
		return true
	})
	want := []int64{15, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(value.Int64)
	for k := int64(0); k < 100; k++ {
		tr.Insert(value.NewInt(k), uint32(k))
	}
	count := 0
	tr.Range(value.NewInt(0), value.NewInt(99), func(value.Value, []uint32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d keys, want 5", count)
	}
}

func TestRangeCrossesLeaves(t *testing.T) {
	tr := New(value.Int64)
	const n = 5000
	for k := int64(0); k < n; k++ {
		tr.Insert(value.NewInt(k), uint32(k))
	}
	var got int
	prev := int64(-1)
	tr.Range(value.NewInt(0), value.NewInt(n-1), func(k value.Value, pos []uint32) bool {
		if k.Int() <= prev {
			t.Fatalf("keys out of order: %d after %d", k.Int(), prev)
		}
		prev = k.Int()
		got++
		return true
	})
	if got != n {
		t.Errorf("Range visited %d keys, want %d", got, n)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(value.String)
	words := []string{"delta", "alpha", "charlie", "bravo"}
	for i, w := range words {
		tr.Insert(value.NewString(w), uint32(i))
	}
	if got := tr.Lookup(value.NewString("charlie")); len(got) != 1 || got[0] != 2 {
		t.Errorf("Lookup(charlie) = %v", got)
	}
	var order []string
	tr.Range(value.NewString("a"), value.NewString("zzz"), func(k value.Value, _ []uint32) bool {
		order = append(order, k.Str())
		return true
	})
	if !sort.StringsAreSorted(order) || len(order) != 4 {
		t.Errorf("Range order = %v", order)
	}
}

// Property: after inserting random (key, pos) pairs, every key's
// positions match a reference map and Range over the full key space
// visits keys in sorted order.
func TestTreeMatchesReferenceMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(value.Int64)
		ref := make(map[int64][]uint32)
		n := rng.Intn(2000) + 1
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(300)) // force duplicates
			tr.Insert(value.NewInt(k), uint32(i))
			ref[k] = append(ref[k], uint32(i))
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got := tr.Lookup(value.NewInt(k))
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(value.Int64)
	if got := tr.Lookup(value.NewInt(1)); got != nil {
		t.Errorf("Lookup on empty tree = %v", got)
	}
	called := false
	tr.Range(value.NewInt(0), value.NewInt(10), func(value.Value, []uint32) bool {
		called = true
		return true
	})
	if called {
		t.Error("Range on empty tree visited keys")
	}
	if tr.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
}

// TestFromCodesMatchesInsert bulk-loads trees from random columns — their
// sorted distinct keys and each row's code — and requires the same
// contents as inserting every row: Len, every Lookup, and one Range over
// all keys. Appending to a bulk-loaded key's positions must leave its
// neighbour's alone, since both share one array.
func TestFromCodesMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := rng.Intn(5000)
		spread := 1 + rng.Intn(1+rows)
		keys := make([]value.Value, rows)
		ins := New(value.Int64)
		for r := range keys {
			keys[r] = value.NewInt(int64(rng.Intn(spread)))
			ins.Insert(keys[r], uint32(r))
		}
		distinct := slices.Clone(keys)
		slices.SortFunc(distinct, value.Value.Compare)
		distinct = slices.CompactFunc(distinct, value.Value.Equal)
		codes := make([]uint32, rows)
		for r, k := range keys {
			c, _ := slices.BinarySearchFunc(distinct, k, value.Value.Compare)
			codes[r] = uint32(c)
		}
		bulk := FromCodes(value.Int64, distinct, codes)
		if bulk.Len() != ins.Len() {
			t.Fatalf("trial %d: Len %d, want %d", trial, bulk.Len(), ins.Len())
		}
		all := func(tr *Tree) (out [][]uint32) {
			tr.Range(value.NewInt(-1), value.NewInt(int64(spread)), func(_ value.Value, pos []uint32) bool {
				out = append(out, pos)
				return true
			})
			return out
		}
		if got, want := all(bulk), all(ins); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Range differs", trial)
		}
		for _, k := range distinct {
			if got, want := bulk.Lookup(k), ins.Lookup(k); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Lookup(%v) = %v, want %v", trial, k, got, want)
			}
		}
		if len(distinct) > 1 {
			next := slices.Clone(bulk.Lookup(distinct[1]))
			bulk.Insert(distinct[0], uint32(rows))
			if !slices.Equal(bulk.Lookup(distinct[1]), next) {
				t.Fatalf("trial %d: an append to one key's positions overwrote the next key's", trial)
			}
		}
	}
}

// TestInsertRunMatchesInsert files random columns' positions two ways —
// one Insert per position, and one InsertRun per key of each batch, the
// run its ascending positions in the batch — into trees that start empty
// or bulk-loaded, and requires the same Len, Lookups and Range. The tree
// must keep a copy of each run: the caller reuses its buffer.
func TestInsertRunMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		spread := 1 + rng.Intn(300)
		ins, runs, pos := New(value.Int64), New(value.Int64), uint32(0)
		if trial%2 == 1 {
			ins.Insert(value.NewInt(0), 0)
			runs, pos = FromCodes(value.Int64, []value.Value{value.NewInt(0)}, []uint32{0}), 1
		}
		var buf []uint32
		for batch := 0; batch < 1+rng.Intn(4); batch++ {
			n := rng.Intn(2000)
			byKey := map[int64][]uint32{}
			var order []int64
			for range n {
				k := int64(rng.Intn(spread))
				ins.Insert(value.NewInt(k), pos)
				if byKey[k] == nil {
					order = append(order, k)
				}
				byKey[k] = append(byKey[k], pos)
				pos++
			}
			for _, k := range order {
				buf = append(buf[:0], byKey[k]...)
				runs.InsertRun(value.NewInt(k), buf)
				clear(buf)
			}
		}
		if runs.Len() != ins.Len() {
			t.Fatalf("trial %d: Len %d, want %d", trial, runs.Len(), ins.Len())
		}
		all := func(tr *Tree) (out [][]uint32) {
			tr.Range(value.NewInt(-1), value.NewInt(int64(spread)), func(_ value.Value, pos []uint32) bool {
				out = append(out, pos)
				return true
			})
			return out
		}
		if got, want := all(runs), all(ins); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Range differs", trial)
		}
		for k := int64(0); k < int64(spread); k++ {
			if got, want := runs.Lookup(value.NewInt(k)), ins.Lookup(value.NewInt(k)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Lookup(%d) = %v, want %v", trial, k, got, want)
			}
		}
	}
}
