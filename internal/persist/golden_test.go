package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

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
	f.Add(v1Snapshot(f))
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
