package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

func testRecords() []Record {
	return []Record{
		{Kind: kindCreateTable, Table: "orders", Fields: []schema.Field{
			{Name: "id", Type: value.Int64},
			{Name: "price", Type: value.Float64},
			{Name: "tag", Type: value.String, Width: 8},
		}},
		{Kind: kindCommit, Ts: 7, Ops: []mvcc.RedoOp{
			{Table: "orders", Row: []value.Value{value.NewInt(1), value.NewFloat(1.5), value.NewString("a")}},
			{Table: "orders", Delete: true, Row: []value.Value{value.NewInt(2), value.NewFloat(-0.25), value.NewString("")}},
		}},
		{Kind: kindLayout, Table: "orders", Layout: []bool{true, false, true}},
		{Kind: kindIndex, Table: "orders", Cols: []int{0}},
		{Kind: kindIndex, Table: "orders", Cols: []int{0, 2}},
		{Kind: kindCheckpointBegin, Ts: 9},
		{Kind: kindCheckpointEnd, Ts: 9},
		{Kind: kindCommit, Ts: 10, Ops: nil},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range testRecords() {
		payload := encodePayload(nil, rec)
		got, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(got)) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", rec, got)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares content.
func normalize(r Record) Record {
	if len(r.Ops) == 0 {
		r.Ops = nil
	}
	for i := range r.Ops {
		if len(r.Ops[i].Row) == 0 {
			r.Ops[i].Row = nil
		}
	}
	if len(r.Fields) == 0 {
		r.Fields = nil
	}
	if len(r.Layout) == 0 {
		r.Layout = nil
	}
	if len(r.Cols) == 0 {
		r.Cols = nil
	}
	return r
}

// TestDecodeSegmentEveryPrefix checks the torn-tail contract byte by
// byte: any prefix of a valid segment decodes to a prefix of its
// records with no error, and the reported torn offset is exactly the
// end of the last whole record.
func TestDecodeSegmentEveryPrefix(t *testing.T) {
	var data []byte
	var ends []int // data offset after each record
	for _, rec := range testRecords() {
		data = appendFrame(data, encodePayload(nil, rec))
		ends = append(ends, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, tornAt, err := decodeSegment(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		wantRecs := 0
		wantTorn := 0
		for i, end := range ends {
			if end <= cut {
				wantRecs = i + 1
				wantTorn = end
			}
		}
		if len(recs) != wantRecs || tornAt != wantTorn {
			t.Fatalf("cut %d: got %d records torn at %d, want %d at %d",
				cut, len(recs), tornAt, wantRecs, wantTorn)
		}
	}
}

func TestDecodeSegmentRejectsBitFlip(t *testing.T) {
	data := appendFrame(nil, encodePayload(nil, testRecords()[1]))
	data = appendFrame(data, encodePayload(nil, testRecords()[2]))
	// Flip one payload byte of the first record: its CRC fails, so
	// decoding must stop there (treated as a tear at offset 0).
	data[len(data)/4] ^= 0x40
	recs, tornAt, err := decodeSegment(data)
	if err != nil {
		t.Fatalf("bit flip must read as a tear, got %v", err)
	}
	if len(recs) != 0 || tornAt != 0 {
		t.Fatalf("bit flip: got %d records torn at %d, want 0 at 0", len(recs), tornAt)
	}
}

// replayCollector records delivered records for assertions.
type replayCollector struct {
	recs []Record
	err  error
}

func (c *replayCollector) CreateTable(name string, fields []schema.Field) error {
	c.recs = append(c.recs, Record{Kind: kindCreateTable, Table: name, Fields: fields})
	return c.err
}
func (c *replayCollector) ApplyLayout(name string, layout []bool) error {
	c.recs = append(c.recs, Record{Kind: kindLayout, Table: name, Layout: layout})
	return c.err
}
func (c *replayCollector) CreateIndex(name string, cols []int) error {
	c.recs = append(c.recs, Record{Kind: kindIndex, Table: name, Cols: cols})
	return c.err
}
func (c *replayCollector) Commit(ts mvcc.Timestamp, ops []mvcc.RedoOp) error {
	c.recs = append(c.recs, Record{Kind: kindCommit, Ts: uint64(ts), Ops: ops})
	return c.err
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	if err := l.AppendCreateTable("orders", testRecords()[0].Fields); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCommit(context.Background(), alloc, testRecords()[1].Ops); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLayout("orders", []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendIndex("orders", []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var c replayCollector
	stats, err := Replay(fs, "wal", &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.recs) != 4 || stats.Records != 4 {
		t.Fatalf("replayed %d records (stats %d), want 4", len(c.recs), stats.Records)
	}
	if c.recs[1].Ts != 1 || stats.MaxTs != 1 {
		t.Fatalf("commit ts %d, stats.MaxTs %d, want 1", c.recs[1].Ts, stats.MaxTs)
	}
	if !reflect.DeepEqual(c.recs[1].Ops, testRecords()[1].Ops) {
		t.Fatalf("ops mismatch: %+v", c.recs[1].Ops)
	}
	if stats.Bytes == 0 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want bytes > 0 and no torn tail", stats)
	}
}

func TestSyncAlwaysSurvivesDroppedUnsynced(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	for i := 0; i < 5; i++ {
		if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(int64(i))}}}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash by recovering only synced state.
	var c replayCollector
	stats, err := Replay(fs.Recover(RecoverDropUnsynced, 0), "wal", &c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 {
		t.Fatalf("SyncAlways lost records: replayed %d, want 5", stats.Records)
	}
}

func TestGroupFlusherSyncs(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncGroup, GroupInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(1)}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var c replayCollector
		stats, err := Replay(fs.Recover(RecoverDropUnsynced, 0), "wal", &c)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never made the record durable")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	for i := 0; i < 3; i++ {
		if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(int64(i))}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	snapTs := ts
	if err := l.AppendCheckpointBegin(snapTs); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot("t.snap", func(w io.Writer) error {
		_, err := w.Write([]byte("snapshot-bytes"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.EndCheckpoint(snapTs); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commit lands in the new segment.
	if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(99)}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var segs, snaps int
	for _, n := range names {
		if segSeq(n) >= 0 {
			segs++
		}
		if n == "t.snap" {
			snaps++
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after checkpoint: %d segments, %d snapshots (names %v), want 1 and 1", segs, snaps, names)
	}
	var c replayCollector
	stats, err := Replay(fs, "wal", &c)
	if err != nil {
		t.Fatal(err)
	}
	// New segment holds: checkpoint-begin, checkpoint-end, final commit.
	if stats.Records != 3 {
		t.Fatalf("replayed %d records from truncated log, want 3", stats.Records)
	}
	last := c.recs[len(c.recs)-1]
	if last.Kind != kindCommit || last.Ops[0].Row[0].Int() != 99 {
		t.Fatalf("last record = %+v, want the post-checkpoint commit", last)
	}
	snaps = 0
	if names, err := ListSnapshots(fs, "wal"); err != nil || len(names) != 1 || names[0] != "t.snap" {
		t.Fatalf("ListSnapshots = %v, %v", names, err)
	}
}

// TestWriteFileCrashSweep crashes one WriteFile of a name outside any
// log, as a table snapshot is written, at each of its mutating
// operations and once after it returns: whatever survives the crash, the
// file is absent or whole, and whole once WriteFile has returned.
func TestWriteFileCrashSweep(t *testing.T) {
	chunk := bytes.Repeat([]byte("snapshot"), 16)
	publish := func(fs FS) error {
		return WriteFile(fs, "dir", "orders.bin", func(w io.Writer) error {
			for i := 0; i < 3; i++ {
				if _, err := w.Write(chunk); err != nil {
					return err
				}
			}
			return nil
		})
	}
	probe := NewMemFS()
	if err := publish(probe); err != nil {
		t.Fatal(err)
	}
	whole := bytes.Repeat(chunk, 3)
	absent := 0
	for crashAt := 1; crashAt <= probe.Ops()+1; crashAt++ {
		fs := NewCrashFS(crashAt)
		done := crashAt > probe.Ops()
		if err := publish(fs); done != (err == nil) {
			t.Fatalf("crashAt=%d of %d ops: WriteFile returned %v", crashAt, probe.Ops(), err)
		}
		for _, mode := range RecoverModes() {
			f, err := fs.Recover(mode, 0).Open("dir/orders.bin")
			if errors.Is(err, os.ErrNotExist) && !done {
				absent++
				continue
			}
			if err != nil {
				t.Fatalf("crashAt=%d %s: %v", crashAt, mode, err)
			}
			got, _ := io.ReadAll(f)
			if !bytes.Equal(got, whole) {
				t.Fatalf("crashAt=%d %s: published file holds %d of %d bytes", crashAt, mode, len(got), len(whole))
			}
		}
	}
	if absent == 0 {
		t.Fatal("no crash state lacks the file: the sweep never crashed before the publish")
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal", Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(1)}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCommit(context.Background(), alloc, []mvcc.RedoOp{{Table: "t", Row: []value.Value{value.NewInt(2)}}}); err != nil {
		t.Fatal(err)
	}
	// Crash with half the unsynced record on disk.
	crashed := fs.Recover(RecoverTornTail, 0)
	var c replayCollector
	stats, err := Replay(crashed, "wal", &c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.TornBytes == 0 {
		t.Fatalf("stats = %+v, want 1 record and a truncated tail", stats)
	}
	// The repair is durable: replaying again sees a clean log.
	var c2 replayCollector
	stats2, err := Replay(crashed, "wal", &c2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Records != 1 || stats2.TornBytes != 0 {
		t.Fatalf("second replay stats = %+v, want clean log with 1 record", stats2)
	}
}

func TestCrashFSInjection(t *testing.T) {
	// Probe run counts ops; then crashing at each op must fail that op
	// and every later one.
	workload := func(fs FS) error {
		f, err := fs.Create("wal/a")
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("hello")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := fs.Rename("wal/a", "wal/b"); err != nil {
			return err
		}
		return fs.SyncDir("wal")
	}
	probe := NewMemFS()
	if err := workload(probe); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total != 5 { // create, write, sync, rename, syncdir
		t.Fatalf("probe counted %d ops, want 5", total)
	}
	for at := 1; at <= total; at++ {
		fs := NewCrashFS(at)
		err := workload(fs)
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at %d: err = %v, want ErrCrashed", at, err)
		}
		if !fs.Crashed() {
			t.Fatalf("crash at %d: FS not marked crashed", at)
		}
		if _, err := fs.Open("wal/a"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at %d: post-crash read err = %v, want ErrCrashed", at, err)
		}
	}
	// Crash at the write (op 2): torn write leaves half the buffer.
	fs := NewCrashFS(2)
	workload(fs)
	rec := fs.Recover(RecoverKeepUnsynced, 0)
	r, err := rec.Open("wal/a")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "he" {
		t.Fatalf("torn write kept %q, want %q", data, "he")
	}
	// Crash after sync but before SyncDir: under drop-unsynced the file
	// content is durable but the namespace rename is not.
	fs = NewCrashFS(5)
	workload(fs)
	rec = fs.Recover(RecoverDropUnsynced, 0)
	if _, err := rec.Open("wal/b"); err == nil {
		t.Fatalf("rename must not be durable without SyncDir")
	}
}

func FuzzWALRecord(f *testing.F) {
	var seed []byte
	for _, rec := range testRecords() {
		seed = appendFrame(seed, encodePayload(nil, rec))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never allocate unboundedly; errors and
		// tears are fine.
		recs, tornAt, err := decodeSegment(data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decode error %v is not ErrBadRecord", err)
			}
			return
		}
		if tornAt > len(data) {
			t.Fatalf("tornAt %d beyond input %d", tornAt, len(data))
		}
		// Whatever decoded must re-encode and decode identically.
		var out []byte
		for _, rec := range recs {
			out = appendFrame(out, encodePayload(nil, rec))
		}
		recs2, tornAt2, err := decodeSegment(out)
		if err != nil || tornAt2 != len(out) || len(recs2) != len(recs) {
			t.Fatalf("re-encode mismatch: %d/%d records, torn %d/%d, err %v",
				len(recs2), len(recs), tornAt2, len(out), err)
		}
		for i := range recs {
			if !reflect.DeepEqual(normalize(recs[i]), normalize(recs2[i])) {
				t.Fatalf("record %d mismatch:\n in %+v\nout %+v", i, recs[i], recs2[i])
			}
		}
	})
}

func TestSegmentNaming(t *testing.T) {
	for _, seq := range []int{0, 7, 99999999} {
		if got := segSeq(segName(seq)); got != seq {
			t.Fatalf("segSeq(segName(%d)) = %d", seq, got)
		}
	}
	for _, name := range []string{"t.snap", "wal-x.log", "wal-00000001.snap", fmt.Sprintf("x%s", segName(1))} {
		if segSeq(name) >= 0 {
			t.Fatalf("segSeq(%q) must be -1", name)
		}
	}
}
