package tierdb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tierdb/internal/persist"
)

// TestRestoreTableErrorPaths: restore must reject missing and corrupt
// snapshot files with a classified error and register nothing.
func TestRestoreTableErrorPaths(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.RestoreTable(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("missing snapshot file accepted")
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(corrupt, []byte("TIERDB02 then garbage bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RestoreTable(corrupt); !errors.Is(err, persist.ErrBadSnapshot) {
		t.Errorf("corrupt snapshot error = %v, want ErrBadSnapshot", err)
	}
	if len(db.Tables()) != 0 {
		t.Errorf("failed restores registered tables: %v", db.Tables())
	}
}

func TestForecastLayoutFollowsTrend(t *testing.T) {
	_, tbl := openLoaded(t, 2000)
	pRegion, _ := tbl.Eq("region", Int(1))
	pID, _ := tbl.Eq("id", Int(5))

	// Four windows: queries on "region" shrink, queries on "id" grow.
	regionCounts := []int{80, 60, 40, 20}
	idCounts := []int{5, 25, 50, 80}
	for wnd := 0; wnd < 4; wnd++ {
		for i := 0; i < regionCounts[wnd]; i++ {
			if _, err := tbl.Select(nil, []Predicate{pRegion}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < idCounts[wnd]; i++ {
			if _, err := tbl.Select(nil, []Predicate{pID}); err != nil {
				t.Fatal(err)
			}
		}
		tbl.CloseWorkloadWindow()
	}
	if tbl.WorkloadWindows() != 4 {
		t.Fatalf("windows = %d", tbl.WorkloadWindows())
	}

	// Budget for exactly one of the two filtered columns. "id" is the
	// bigger, growing column; Holt should prefer it even though the
	// cumulative history favors "region".
	idBytes := tbl.Inner().ColumnBytes(0)
	layout, err := tbl.RecommendForecastLayout(
		PlacementOptions{Budget: idBytes + 1024, Method: MethodILP},
		ForecastOptions{Method: ForecastHolt, Alpha: 0.8, Beta: 0.6},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !layout.InDRAM[0] {
		t.Errorf("forecast layout did not keep the growing column: %v", layout.InDRAM)
	}
	// The cumulative plan cache (no forecast) keeps "region" instead:
	// total region executions 200 vs id 160, and region is cheaper.
	cumulative, err := tbl.RecommendLayout(PlacementOptions{Budget: idBytes + 1024, Method: MethodILP})
	if err != nil {
		t.Fatal(err)
	}
	_ = cumulative // shape depends on sizes; key assertion is above
}

func TestForecastLayoutRequiresWindows(t *testing.T) {
	_, tbl := openLoaded(t, 100)
	if _, err := tbl.RecommendForecastLayout(PlacementOptions{RelativeBudget: 0.5}, ForecastOptions{}); err == nil {
		t.Error("forecast without windows accepted")
	}
	p, _ := tbl.Eq("region", Int(1))
	if _, err := tbl.Select(nil, []Predicate{p}); err != nil {
		t.Fatal(err)
	}
	tbl.CloseWorkloadWindow()
	layout, err := tbl.RecommendForecastLayout(PlacementOptions{RelativeBudget: 0.5}, ForecastOptions{Method: ForecastLastWindow})
	if err != nil {
		t.Fatal(err)
	}
	if layout.Memory <= 0 {
		t.Error("forecast layout placed nothing")
	}
	if _, err := tbl.RecommendForecastLayout(PlacementOptions{Pinned: []string{"missing"}}, ForecastOptions{}); err == nil {
		t.Error("unknown pinned column accepted")
	}
}

func TestSnapshotRestoreThroughFacade(t *testing.T) {
	db, tbl := openLoaded(t, 300)
	layout, err := tbl.RecommendLayout(PlacementOptions{RelativeBudget: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "orders.snap")
	if err := tbl.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	// Restore into a second database on a different device.
	db2, err := Open(Config{Device: "CSSD", CacheFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := db2.RestoreTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rows() != 300 {
		t.Errorf("restored rows = %d", restored.Rows())
	}
	for i, in := range restored.Layout() {
		if in != layout.InDRAM[i] {
			t.Errorf("layout[%d] not restored", i)
		}
	}
	row, err := restored.Get(42)
	if err != nil || row[0].Int() != 42 {
		t.Errorf("restored Get = %v, %v", row, err)
	}
	// Restoring again collides on the name.
	if _, err := db2.RestoreTable(path); err == nil {
		t.Error("duplicate restore accepted")
	}
	_ = db
}

// TestRestoreTableIsMetered: a restored table reports to the database's
// registry like a created one, so its inserts and merges are counted.
func TestRestoreTableIsMetered(t *testing.T) {
	_, tbl := openLoaded(t, 50)
	path := filepath.Join(t.TempDir(), "orders.snap")
	if err := tbl.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	restored, err := db.RestoreTable(path)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Registry().Snapshot().Counters // loading counts too
	for i := 0; i < 5; i++ {
		if err := restored.Insert([]Value{Int(int64(100 + i)), Int(1), Float(1), String("n")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Merge(); err != nil {
		t.Fatal(err)
	}
	after := db.Registry().Snapshot().Counters
	if got := after["delta.inserts"] - before["delta.inserts"]; got != 5 {
		t.Errorf("delta.inserts grew by %d over 5 inserts into a restored table", got)
	}
	if got := after["table.merges"] - before["table.merges"]; got != 1 {
		t.Errorf("table.merges grew by %d over one merge of a restored table", got)
	}
}

func TestCompositeIndexThroughFacade(t *testing.T) {
	_, tbl := openLoaded(t, 100)
	if err := tbl.CreateCompositeIndex("region", "note"); err != nil {
		t.Fatal(err)
	}
	ids, err := tbl.LookupComposite([]string{"region", "note"}, []Value{Int(3), String("n")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 13 { // region == 3: ids 3, 11, ..., 99
		t.Errorf("composite lookup = %d rows, want 13", len(ids))
	}
	if err := tbl.CreateCompositeIndex("region", "missing"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tbl.LookupComposite([]string{"missing"}, []Value{Int(1)}); err == nil {
		t.Error("unknown lookup column accepted")
	}
}

// TestCompositeLookupRejectsMistypedKey pins that a composite key value
// of the wrong type is an error, not a panic when a delta row is
// compared with it (nor, since the delta probes a typed map, wrong rows).
func TestCompositeLookupRejectsMistypedKey(t *testing.T) {
	_, tbl := openLoaded(t, 100)
	if err := tbl.CreateCompositeIndex("region", "note"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Int(100), Int(3), Float(1), String("n")}); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]Value{{String("3"), String("n")}, {Int(3), Int(0)}, {Float(3), String("n")}} {
		if ids, err := tbl.LookupComposite([]string{"region", "note"}, key); err == nil {
			t.Errorf("LookupComposite(%v) = %v, want a type error", key, ids)
		}
	}
	ids, err := tbl.LookupComposite([]string{"region", "note"}, []Value{Int(3), String("n")})
	if err != nil || len(ids) != 14 {
		t.Errorf("LookupComposite(3, n) = %d rows, %v; want 14", len(ids), err)
	}
}
