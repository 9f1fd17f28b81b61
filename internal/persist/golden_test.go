package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"slices"
	"testing"

	"tierdb/internal/exec"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// v1Snapshot returns the bytes a TIERDB01 encoder would have written
// for a small table: TIERDB01 was TIERDB02 without the snapshot
// timestamp after the magic.
func v1Snapshot(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, buildTable(tb, 8)); err != nil {
		tb.Fatal(err)
	}
	v2 := buf.Bytes()
	_, n := binary.Uvarint(v2[len(magicV2):])
	if n <= 0 {
		tb.Fatal("saved snapshot carries no timestamp")
	}
	return append([]byte("TIERDB01"), v2[len(magicV2)+n:]...)
}

// TestTIERDB01Rejected: no build ever wrote a TIERDB01 snapshot, so a
// file claiming that format is not a snapshot this engine reads.
func TestTIERDB01Rejected(t *testing.T) {
	if _, _, err := LoadAt(bytes.NewReader(v1Snapshot(t)), table.Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("TIERDB01 snapshot: err = %v, want ErrBadSnapshot", err)
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
	if !bytes.HasPrefix(buf.Bytes(), magicV3) {
		t.Fatalf("SaveAt magic = %q, want TIERDB03", buf.Bytes()[:8])
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
	victim, err := getTuple(tbl, 3)
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
	f.Add(v1Snapshot(f))
	f.Add([]byte("TIERDB02"))
	f.Add(append([]byte("TIERDB02"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	// Small TIERDB03 images of the round-trip property's shapes — all-MRC,
	// all-SSCG and mixed layouts, hidden rows, a frozen delta, composite
	// indexes, empty mains — the crafted image and the TIERDB02 fixture.
	for _, seed := range []int64{0, 3, 4, 12, 21, 25, 27, 37, 60, 62} {
		c := buildRoundTripCase(f, seed)
		c.saved.Release()
		f.Add(c.image)
	}
	f.Add(validCraft().image())
	if img, err := os.ReadFile("testdata/tierdb02.snap"); err == nil {
		f.Add(img)
	}
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

// goldenV2Rows are the rows of testdata/tierdb02.snap, in RowID order:
// a TIERDB02 snapshot taken at timestamp 3 of a table of twelve
// bulk-loaded rows under the layout [MRC, SSCG, SSCG], indexed on id and
// on (id, tag), after one commit deleted row 3, (3, +Inf, "gamma"), and
// inserted (100, 7, "delta") and a second inserted (2, -1, "beta").
func goldenV2Rows() [][]value.Value {
	row := func(id int64, price float64, tag string) []value.Value {
		return []value.Value{value.NewInt(id), value.NewFloat(price), value.NewString(tag)}
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	return [][]value.Value{
		row(0, 1.5, ""), row(1, nan, "alpha"), row(2, negZero, "beta"), row(4, -2.25, ""),
		row(5, 1e300, "alpha"), row(6, 1.5, "beta"), row(7, nan, "gamma"), row(8, negZero, ""),
		row(0, math.Inf(1), "alpha"), row(1, -2.25, "beta"), row(2, 1e300, "gamma"),
		row(100, 7, "delta"), row(2, -1, "beta"),
	}
}

// TestGoldenTIERDB02 loads a snapshot the previous format's writer
// wrote and pins what it restores — rows, layout, indexes and query
// answers — then carries it through a TIERDB03 save and load: a write
// acknowledged in an old checkpoint survives the upgrade.
func TestGoldenTIERDB02(t *testing.T) {
	img, err := os.ReadFile("testdata/tierdb02.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(img, magicV2) {
		t.Fatalf("fixture magic %q, want TIERDB02", img[:8])
	}
	v2, ts, err := LoadAt(bytes.NewReader(img), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ts != 3 {
		t.Fatalf("snapshot timestamp %d, want 3", ts)
	}
	var v3Image bytes.Buffer
	if err := Save(&v3Image, v2); err != nil {
		t.Fatal(err)
	}
	v3, _, err := LoadAt(bytes.NewReader(v3Image.Bytes()), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := goldenV2Rows()
	for name, tbl := range map[string]*table.Table{"TIERDB02": v2, "TIERDB03 of it": v3} {
		if got := tbl.Layout(); !slices.Equal(got, []bool{true, false, false}) {
			t.Errorf("%s: layout %v", name, got)
		}
		if tbl.Index(0) == nil || !slices.EqualFunc(tbl.CompositeIndexes(), [][]int{{0, 2}}, slices.Equal) {
			t.Errorf("%s: indexes on id %v, composites %v", name, tbl.Index(0) != nil, tbl.CompositeIndexes())
		}
		if n := tbl.VisibleCount(); n != len(want) {
			t.Fatalf("%s: %d rows visible, want %d", name, n, len(want))
		}
		for id, w := range want {
			got, err := getTuple(tbl, uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			if !sameValues(got, w) || math.Signbit(got[1].Float()) != math.Signbit(w[1].Float()) {
				t.Errorf("%s: row %d = %v, want %v", name, id, got, w)
			}
		}
		ex := exec.New(tbl, exec.Options{})
		res, err := ex.Run(exec.Query{Predicates: []exec.Predicate{{Column: 0, Op: exec.Eq, Value: value.NewInt(2)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.IDs, []table.RowID{2, 10, 12}) {
			t.Errorf("%s: id = 2 gives rows %v, want [2 10 12]", name, res.IDs)
		}
		res, err = ex.Run(exec.Query{Predicates: []exec.Predicate{{Column: 1, Op: exec.Between, Value: value.NewFloat(-3), Hi: value.NewFloat(0)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.IDs, []table.RowID{2, 3, 7, 9, 12}) {
			t.Errorf("%s: price in [-3, 0] gives rows %v, want [2 3 7 9 12]", name, res.IDs)
		}
		v := tbl.Pin()
		ids, err := v.LookupComposite([]int{0, 2}, []value.Value{value.NewInt(2), value.NewString("beta")}, tbl.Manager().LastCommit(), 0)
		v.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, []table.RowID{2, 12}) {
			t.Errorf("%s: (id, tag) = (2, beta) gives rows %v, want [2 12]", name, ids)
		}
	}
}
