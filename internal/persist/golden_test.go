package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tierdb/internal/table"
	"tierdb/internal/value"
)

// TestGoldenTIERDB01 pins backward compatibility: the checked-in
// fixture was written by the TIERDB01 encoder, and current Load must
// keep reading it bit-exactly. Future format changes must bump the
// magic (as TIERDB02 did) instead of silently breaking old checkpoints.
func TestGoldenTIERDB01(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_tierdb01.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, magicV1) {
		t.Fatalf("fixture magic = %q, want TIERDB01", data[:8])
	}
	tbl, snapTs, err := LoadAt(bytes.NewReader(data), table.Options{})
	if err != nil {
		t.Fatalf("current Load no longer reads a TIERDB01 snapshot: %v", err)
	}
	if snapTs != 0 {
		t.Errorf("v1 snapshot timestamp = %d, want 0 (standalone)", snapTs)
	}
	if tbl.Name() != "golden" {
		t.Errorf("name = %q", tbl.Name())
	}
	fields := tbl.Schema().Fields()
	if len(fields) != 3 || fields[0].Name != "id" || fields[1].Name != "price" ||
		fields[2].Name != "tag" || fields[2].Type != value.String || fields[2].Width != 8 {
		t.Errorf("schema = %+v", fields)
	}
	layout := tbl.Layout()
	if !layout[0] || layout[1] || layout[2] {
		t.Errorf("layout = %v, want [true false false]", layout)
	}
	if tbl.Index(0) == nil {
		t.Error("single-column index not rebuilt")
	}
	comps := tbl.CompositeIndexes()
	if len(comps) != 1 || len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 2 {
		t.Errorf("composite indexes = %v, want [[0 2]]", comps)
	}
	if tbl.VisibleCount() != 5 {
		t.Fatalf("rows = %d, want 5", tbl.VisibleCount())
	}
	want := []struct {
		id    int64
		price float64
		tag   string
	}{
		{1, 1.5, "alpha"},
		{2, -2.25, "beta"},
		{3, 0, ""},
		{4, 1e12, "delta"},
		{5, -0.001, "εpsilon"},
	}
	for i, w := range want {
		got, err := tbl.GetTuple(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Int() != w.id || got[1].Float() != w.price || got[2].Str() != w.tag {
			t.Errorf("row %d = %v, want %+v", i, got, w)
		}
	}
}

// TestSaveAtEmbedsSnapshotTimestamp checks the v2 contract recovery
// depends on: rows restore visible from exactly the saved timestamp
// and the restored table's clock is advanced to it.
func TestSaveAtEmbedsSnapshotTimestamp(t *testing.T) {
	tbl := buildTable(t, 10)
	mgr := tbl.Manager()
	snapTs, release := mgr.QuiescedLastCommit()
	defer release()
	// A commit after the snapshot timestamp must be excluded even
	// though it exists when SaveAt runs.
	tx := mgr.Begin()
	if err := tbl.Insert(tx, []value.Value{
		value.NewInt(999), value.NewFloat(9), value.NewString("late"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveAt(&buf, tbl, snapTs); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), magicV2) {
		t.Fatalf("SaveAt magic = %q, want TIERDB02", buf.Bytes()[:8])
	}
	restored, gotTs, err := LoadAt(bytes.NewReader(buf.Bytes()), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gotTs != snapTs {
		t.Errorf("restored snapshot ts %d, want %d", gotTs, snapTs)
	}
	if restored.Manager().LastCommit() < snapTs {
		t.Errorf("restored clock %d behind snapshot %d", restored.Manager().LastCommit(), snapTs)
	}
	if restored.VisibleCount() != 10 {
		t.Errorf("restored %d rows, want 10 (post-snapshot commit excluded)", restored.VisibleCount())
	}
	// Visibility point preserved: nothing visible just below snapTs.
	v := restored.Pin()
	defer v.Release()
	if n := v.Active().Versions().LiveAt(snapTs - 1); n != 0 {
		t.Errorf("%d rows visible before the snapshot timestamp", n)
	}
}

// TestCheckpointSnapshotSurvivesMergePurge runs a checkpoint's steps with
// a merge completing between the quiesced snapshot and the save: a row
// deleted after the snapshot is carried by the merge, and only the
// snapshot's registration keeps the swap from purging it. The saved
// table holds the row, and replaying its logged delete finds it.
func TestCheckpointSnapshotSurvivesMergePurge(t *testing.T) {
	tbl := buildTable(t, 10)
	mgr := tbl.Manager()
	snapTs, release := mgr.QuiescedLastCommit()
	victim, err := tbl.GetTuple(3)
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Begin()
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	deleted, err := mgr.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveAt(&buf, tbl, snapTs); err != nil {
		t.Fatal(err)
	}
	release()
	restored, _, err := LoadAt(bytes.NewReader(buf.Bytes()), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.VisibleCount(); n != 10 {
		t.Fatalf("checkpoint at %d holds %d rows, want 10 (row 3 deleted at %d, after it)", snapTs, n, deleted)
	}
	if err := restored.ReplayDelete(victim, deleted); err != nil {
		t.Fatalf("replaying the logged delete: %v", err)
	}
}

func FuzzSnapshotLoad(f *testing.F) {
	tbl := buildTable(f, 8)
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden_tierdb01.snap")); err == nil {
		f.Add(golden)
	}
	f.Add([]byte("TIERDB02"))
	f.Add(append([]byte("TIERDB02"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Load must never panic and never allocate past the input's own
		// size class; corrupt input must classify as ErrBadSnapshot.
		tbl, _, err := LoadAt(bytes.NewReader(data), table.Options{})
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("corrupt snapshot error %v is not ErrBadSnapshot", err)
			}
			return
		}
		// Accepted input must round-trip through Save.
		var out bytes.Buffer
		if err := Save(&out, tbl); err != nil {
			t.Fatalf("re-save of accepted snapshot failed: %v", err)
		}
		if _, _, err := LoadAt(bytes.NewReader(out.Bytes()), table.Options{}); err != nil {
			t.Fatalf("re-load of re-saved snapshot failed: %v", err)
		}
	})
}
