package wal

import (
	"context"
	"testing"

	"tierdb/internal/codec"
	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// appendFrame frames payload into buf the way Log writes it: header,
// payload.
func appendFrame(buf, payload []byte) []byte {
	return append(codec.AppendFrameHeader(buf, payload), payload...)
}

// commitOps returns a commit of n three-column inserts.
func commitOps(n int) []mvcc.RedoOp {
	ops := make([]mvcc.RedoOp, n)
	for i := range ops {
		ops[i] = mvcc.RedoOp{Table: "t", Row: []value.Value{value.NewInt(int64(i)), value.NewFloat(2.5), value.NewString("ol_dist_info_24_bytes__")}}
	}
	return ops
}

// TestAppendCommitAllocatesNothing: a small commit is encoded into the
// log's kept buffer with its header written in place — no frame is
// allocated per append.
func TestAppendCommitAllocatesNothing(t *testing.T) {
	l, err := Open(Options{FS: OSFS{}, Dir: t.TempDir(), Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, ops, ts := context.Background(), commitOps(2), mvcc.Timestamp(0)
	alloc := func() mvcc.Timestamp { ts++; return ts }
	if _, err := l.AppendCommit(ctx, alloc, ops); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := l.AppendCommit(ctx, alloc, ops); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("AppendCommit of %d rows: %.1f allocs, want 0", len(ops), got)
	}
}

// TestLogLetsGoOfLargeRecords: after a bulk load's commit the log keeps
// at most codec.MaxKeptBuffer bytes of buffer, and both commits replay.
func TestLogLetsGoOfLargeRecords(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	ts := mvcc.Timestamp(0)
	alloc := func() mvcc.Timestamp { ts++; return ts }
	for _, n := range []int{100_000, 1} {
		if _, err := l.AppendCommit(context.Background(), alloc, commitOps(n)); err != nil {
			t.Fatal(err)
		}
		if c := cap(l.scratch); c > codec.MaxKeptBuffer {
			t.Fatalf("after a %d-row commit the log holds %d B, want <= %d", n, c, codec.MaxKeptBuffer)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c replayCollector
	if _, err := Replay(fs, "wal", &c); err != nil {
		t.Fatal(err)
	}
	if len(c.recs) != 2 || len(c.recs[0].Ops) != 100_000 || len(c.recs[1].Ops) != 1 {
		t.Fatalf("replayed %d records, want commits of 100000 and 1 rows", len(c.recs))
	}
}
