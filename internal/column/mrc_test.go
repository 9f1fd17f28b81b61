package column

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tierdb/internal/value"
)

func intColumn(t *testing.T, vals ...int64) *MRC {
	t.Helper()
	vv := make([]value.Value, len(vals))
	for i, v := range vals {
		vv[i] = value.NewInt(v)
	}
	c, err := Build("test", value.Int64, vv)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildAndGet(t *testing.T) {
	c := intColumn(t, 5, 3, 5, 9, 3)
	if c.Codes().Len() != 5 {
		t.Errorf("rows = %d", c.Codes().Len())
	}
	if c.Dictionary().Size() != 3 {
		t.Errorf("distinct = %d", c.Dictionary().Size())
	}
	want := []int64{5, 3, 5, 9, 3}
	for i, w := range want {
		v, err := c.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != w {
			t.Errorf("Get(%d) = %d, want %d", i, v.Int(), w)
		}
	}
	if _, err := c.Get(99); err == nil {
		t.Error("out-of-range Get accepted")
	}
	if c.Dictionary().Type() != value.Int64 {
		t.Error("dictionary type wrong")
	}
}

func TestScanEqual(t *testing.T) {
	c := intColumn(t, 5, 3, 5, 9, 3)
	got, err := c.ScanRangeIn(value.NewInt(5), value.NewInt(5), 0, c.Codes().Len(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ScanRangeIn(5, 5) = %v", got)
	}
	// Absent value: empty result, no error.
	got, err = c.ScanRangeIn(value.NewInt(77), value.NewInt(77), 0, c.Codes().Len(), nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("ScanRangeIn(77, 77) = %v, %v", got, err)
	}
	// Type mismatch errors.
	if _, err := c.ScanRangeIn(value.NewString("x"), value.NewString("x"), 0, c.Codes().Len(), nil, nil); err == nil {
		t.Error("type mismatch accepted")
	}
	// Skip masks rows.
	got, _ = c.ScanRangeIn(value.NewInt(5), value.NewInt(5), 0, c.Codes().Len(), nil, func(i int) bool { return i == 0 })
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("ScanRangeIn(5, 5) with skip = %v", got)
	}
}

func TestScanRange(t *testing.T) {
	c := intColumn(t, 10, 25, 40, 25, 5)
	got, err := c.ScanRangeIn(value.NewInt(10), value.NewInt(30), 0, c.Codes().Len(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]bool{0: true, 1: true, 3: true}
	if len(got) != 3 {
		t.Fatalf("ScanRange = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected position %d", p)
		}
	}
	// Empty range.
	got, err = c.ScanRangeIn(value.NewInt(41), value.NewInt(50), 0, c.Codes().Len(), nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty range = %v, %v", got, err)
	}
	if _, err := c.ScanRangeIn(value.NewString("a"), value.NewString("b"), 0, c.Codes().Len(), nil, nil); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestProbe(t *testing.T) {
	c := intColumn(t, 5, 3, 5, 9, 3)
	got, err := c.ProbeRange(value.NewInt(5), value.NewInt(5), []uint32{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ProbeRange(5, 5) = %v", got)
	}
	got, err = c.ProbeRange(value.NewInt(3), value.NewInt(5), []uint32{0, 3, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("ProbeRange = %v", got)
	}
	// Missing value probes to empty.
	got, _ = c.ProbeRange(value.NewInt(100), value.NewInt(100), []uint32{0, 1}, nil)
	if len(got) != 0 {
		t.Errorf("ProbeRange(missing) = %v", got)
	}
	if _, err := c.ProbeRange(value.NewString("x"), value.NewString("x"), nil, nil); err == nil {
		t.Error("probe type mismatch accepted")
	}
	if _, err := c.ProbeRange(value.NewString("x"), value.NewString("y"), nil, nil); err == nil {
		t.Error("probe range type mismatch accepted")
	}
}

func TestScanMatchesProbeOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 5000
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = value.NewInt(int64(rng.Intn(100)))
	}
	c, err := Build("rand", value.Int64, vals)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	for _, probe := range []int64{0, 17, 50, 99} {
		s, err := c.ScanRangeIn(value.NewInt(probe), value.NewInt(probe), 0, c.Codes().Len(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.ProbeRange(value.NewInt(probe), value.NewInt(probe), all, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(s) != len(p) {
			t.Fatalf("scan and probe disagree for %d: %d vs %d", probe, len(s), len(p))
		}
		for i := range s {
			if s[i] != p[i] {
				t.Fatalf("scan and probe positions disagree")
			}
		}
	}
}

func TestCodeAndDictionary(t *testing.T) {
	c := intColumn(t, 30, 10, 20)
	// Order-preserving: code(10)=0 < code(20)=1 < code(30)=2.
	if c.Code(1) != 0 || c.Code(2) != 1 || c.Code(0) != 2 {
		t.Errorf("codes = %d %d %d", c.Code(0), c.Code(1), c.Code(2))
	}
	if c.Dictionary().Size() != 3 {
		t.Error("Dictionary accessor broken")
	}
	if c.Bytes() <= 0 {
		t.Error("Bytes not positive")
	}
}

func TestBuildStringColumn(t *testing.T) {
	vals := []value.Value{value.NewString("b"), value.NewString("a"), value.NewString("b")}
	c, err := Build("s", value.String, vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ScanRangeIn(value.NewString("a"), value.NewString("a"), 0, c.Codes().Len(), nil, nil)
	if err != nil || len(got) != 1 || got[0] != 1 {
		t.Errorf("string range scan = %v, %v", got, err)
	}
}

func TestBuildTypeMismatch(t *testing.T) {
	if _, err := Build("x", value.Int64, []value.Value{value.NewString("s")}); err == nil {
		t.Error("mismatched build accepted")
	}
}

// TestDictionaryHoldsOnlyDistinct pins what a built column keeps alive:
// its packed codes and a dictionary sized by the distinct values, not
// the rows-long buffer the dictionary was sorted and deduplicated in
// (300 000 rows × 40 B ≈ 11.6 MB for a column that models 0.14 MB).
func TestDictionaryHoldsOnlyDistinct(t *testing.T) {
	const rows, distinct = 300_000, 10
	vals := make([]value.Value, rows)
	for i := range vals {
		vals[i] = value.NewInt(int64(i % distinct))
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	mrc, err := Build("c", value.Int64, vals)
	if err != nil {
		t.Fatal(err)
	}
	grown := int64(heap()) - int64(before)
	runtime.KeepAlive(vals)
	if mrc.Dictionary().Size() != distinct {
		t.Fatalf("distinct = %d, want %d", mrc.Dictionary().Size(), distinct)
	}
	t.Logf("models %d B, holds %d B", mrc.Bytes(), grown)
	if grown > 1<<20 {
		t.Errorf("a %d-row, %d-distinct column holds %d B of heap, want <= 1 MB (models %d B)", rows, distinct, grown, mrc.Bytes())
	}
	runtime.KeepAlive(mrc)
}

// TestTypedDictionaryHoldsItsModel pins the heap a high-cardinality
// column holds to what MRC.Bytes models for it — 8 bytes a float entry,
// a string's bytes plus its header — within 25 %, for the shapes of the
// benchmark's ol_amount (300 000 rows, about 260 000 distinct floats) and
// ol_dist_info (300 000 distinct 24-byte strings). A dictionary of
// value.Value entries holds 40 bytes each.
func TestTypedDictionaryHoldsItsModel(t *testing.T) {
	const rows = 300_000
	rng := rand.New(rand.NewSource(1))
	floats, strs := make([]value.Value, rows), make([]value.Value, rows)
	for i := range floats {
		floats[i] = value.NewFloat(float64(rng.Intn(1_000_000)) / 100)
		strs[i] = value.NewString(fmt.Sprintf("dist-info-%07d-%07d", rng.Intn(rows), i))
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, vals := range [][]value.Value{floats, strs} {
		typ := vals[0].Type()
		before := heap()
		mrc, err := Build("c", typ, vals)
		if err != nil {
			t.Fatal(err)
		}
		grown := int64(heap()) - int64(before)
		t.Logf("%s: %d distinct, models %d B, holds %d B", typ, mrc.Dictionary().Size(), mrc.Bytes(), grown)
		if float64(grown) > 1.25*float64(mrc.Bytes()) {
			t.Errorf("%s column of %d distinct values holds %d B of heap, want <= 1.25 x the %d B it models", typ, mrc.Dictionary().Size(), grown, mrc.Bytes())
		}
		runtime.KeepAlive(mrc)
	}
	runtime.KeepAlive(floats)
	runtime.KeepAlive(strs)
}
