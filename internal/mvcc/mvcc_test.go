package mvcc

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestBeginAssignsIncreasingIDs(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if t2.ID() <= t1.ID() {
		t.Errorf("tx ids not increasing: %d then %d", t1.ID(), t2.ID())
	}
	if t1.Status() != Active {
		t.Error("new tx not active")
	}
}

func TestCommitAdvancesTimestamp(t *testing.T) {
	m := NewManager()
	before := m.LastCommit()
	tx := m.Begin()
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if ts <= before {
		t.Errorf("commit ts %d not after %d", ts, before)
	}
	if m.LastCommit() != ts {
		t.Errorf("LastCommit = %d, want %d", m.LastCommit(), ts)
	}
	if tx.Status() != Committed {
		t.Error("tx not committed")
	}
	if _, err := m.Commit(tx); !errors.Is(err, ErrTxFinished) {
		t.Errorf("double commit: %v", err)
	}
	if err := m.Abort(tx); !errors.Is(err, ErrTxFinished) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestInsertVisibilityLifecycle(t *testing.T) {
	m := NewManager()
	v := NewVersions()

	writer := m.Begin()
	row := v.AppendPending(writer.ID())
	writer.OnCommit(func(ts Timestamp) { v.CommitInsert(row, ts) })

	// Only the writer sees its provisional insert.
	if !v.Visible(row, writer.Snapshot(), writer.ID()) {
		t.Error("writer cannot see its own insert")
	}
	reader := m.Begin()
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("other tx sees provisional insert")
	}

	ts, err := m.Commit(writer)
	if err != nil {
		t.Fatal(err)
	}
	// The old reader snapshot still does not see it (snapshot isolation).
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("old snapshot sees newly committed row")
	}
	// A new reader does.
	late := m.Begin()
	if !v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("new snapshot misses committed row")
	}
	if v.LiveAt(ts) != 1 {
		t.Errorf("LiveAt(%d) = %d, want 1", ts, v.LiveAt(ts))
	}
}

func TestAbortInsertNeverVisible(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	tx := m.Begin()
	row := v.AppendPending(tx.ID())
	tx.OnAbort(func() { v.AbortInsert(row) })
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	late := m.Begin()
	if v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("aborted insert visible")
	}
	if v.Visible(row, late.Snapshot(), tx.ID()) {
		t.Error("aborted insert visible to its own tx id")
	}
}

func TestDeleteLifecycle(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())

	deleter := m.Begin()
	if err := v.MarkDelete(row, deleter.ID()); err != nil {
		t.Fatal(err)
	}
	deleter.OnCommit(func(ts Timestamp) { v.CommitDelete(row, ts) })

	// Deleter no longer sees the row; concurrent readers still do.
	if v.Visible(row, deleter.Snapshot(), deleter.ID()) {
		t.Error("deleter still sees row after MarkDelete")
	}
	reader := m.Begin()
	if !v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("concurrent reader lost the row before commit")
	}

	if _, err := m.Commit(deleter); err != nil {
		t.Fatal(err)
	}
	// Old snapshot still sees it; new snapshot does not.
	if !v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("old snapshot lost row after delete commit")
	}
	late := m.Begin()
	if v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("new snapshot sees deleted row")
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())

	t1 := m.Begin()
	t2 := m.Begin()
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("second delete intent: %v, want ErrWriteConflict", err)
	}
	// Re-marking by the same tx is idempotent.
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Errorf("re-mark by owner: %v", err)
	}
	// After abort the row is deletable again.
	v.AbortDelete(row, t1.ID())
	if err := v.MarkDelete(row, t2.ID()); err != nil {
		t.Errorf("delete after released intent: %v", err)
	}
}

func TestDeleteCommittedRowTwiceConflicts(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())
	t1 := m.Begin()
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Fatal(err)
	}
	t1.OnCommit(func(ts Timestamp) { v.CommitDelete(row, ts) })
	if _, err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("delete of deleted row: %v, want ErrWriteConflict", err)
	}
}

func TestMarkDeleteOtherTxPendingInsertConflicts(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	t1 := m.Begin()
	row := v.AppendPending(t1.ID())
	t2 := m.Begin()
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("delete of foreign pending insert: %v, want ErrWriteConflict", err)
	}
}

func TestMarkDeleteOutOfRange(t *testing.T) {
	v := NewVersions()
	if err := v.MarkDelete(5, 1); err == nil {
		t.Error("out-of-range MarkDelete accepted")
	}
	if v.Visible(5, 10, 0) {
		t.Error("out-of-range row visible")
	}
}

func TestVersionsBytesAndLen(t *testing.T) {
	v := NewVersions()
	v.AppendCommitted(1)
	v.AppendCommitted(1)
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	if v.Bytes() != 2*32 {
		t.Errorf("Bytes = %d, want 64", v.Bytes())
	}
}

func TestConcurrentTransactions(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	const writers = 8
	const rowsPer = 200
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rowsPer; i++ {
				tx := m.Begin()
				row := v.AppendPending(tx.ID())
				tx.OnCommit(func(ts Timestamp) { v.CommitInsert(row, ts) })
				if _, err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	final := m.Begin()
	if got := v.LiveAt(final.Snapshot()); got != writers*rowsPer {
		t.Errorf("LiveAt = %d, want %d", got, writers*rowsPer)
	}
}

// TestBatchedVisibilityMatchesVisible holds FilterVisible and VisibleIn
// to the per-row rule over random version vectors covering every state
// a row can be in, for a transactional and a non-transactional reader,
// with out-of-range positions in the list. The last 50 rounds are
// main-shaped: shared rows at one begin before or after the snapshot,
// some deleted or under an intent, then the same dense rows.
func TestBatchedVisibilityMatchesVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const self, other, snapshot = TxID(7), TxID(8), Timestamp(50)
	for round := 0; round < 100; round++ {
		v := NewVersions()
		if round >= 50 {
			v = NewVersionsAt(1+rng.Intn(200), Timestamp(1+rng.Intn(60)), nil)
			for row := 0; row < v.Len(); row++ {
				owner := []TxID{self, other}[rng.Intn(2)]
				switch rng.Intn(6) {
				case 0: // delete intent, by self or another
					if err := v.MarkDelete(row, owner); err != nil {
						t.Fatal(err)
					}
				case 1: // deleted before or after the snapshot
					v.SetEnds([]int{row}, []Timestamp{Timestamp(41 + rng.Intn(20))})
				}
			}
		}
		shared := v.Len()
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			owner := []TxID{self, other}[rng.Intn(2)]
			switch rng.Intn(7) {
			case 0: // pending insert, by self or another
				v.AppendPending(owner)
			case 1: // aborted insert
				v.AbortInsert(v.AppendPending(owner))
			case 2: // committed before or after the snapshot
				v.AppendCommitted(Timestamp(1 + rng.Intn(100)))
			case 3: // deleted before or after the snapshot
				v.AppendAt(Timestamp(1+rng.Intn(40)), Timestamp(41+rng.Intn(20)))
			case 4: // delete intent, by self or another
				if err := v.MarkDelete(v.AppendCommitted(10), owner); err != nil {
					t.Fatal(err)
				}
			case 5: // self deleting its own pending insert
				if err := v.MarkDelete(v.AppendPending(self), self); err != nil {
					t.Fatal(err)
				}
			default:
				v.AppendCommitted(1)
			}
		}
		n += shared
		for _, reader := range []TxID{0, self} {
			var want, pos []uint32
			for i := 0; i < n+10; i++ { // the last ten are out of range
				if rng.Intn(3) > 0 {
					continue
				}
				pos = append(pos, uint32(i))
				if v.Visible(i, snapshot, reader) {
					want = append(want, uint32(i))
				}
			}
			if got := v.FilterVisible(pos, snapshot, reader); !slices.Equal(got, want) {
				t.Fatalf("round %d reader %d: FilterVisible = %v, want %v", round, reader, got, want)
			}
			lo, hi := rng.Intn(n+1)-3, rng.Intn(n+1)+3
			want = []uint32{99}
			for i := max(lo, 0); i < hi; i++ {
				if v.Visible(i, snapshot, reader) {
					want = append(want, uint32(i))
				}
			}
			if got := v.VisibleIn(lo, hi, snapshot, reader, []uint32{99}); !slices.Equal(got, want) {
				t.Fatalf("round %d reader %d: VisibleIn(%d, %d) = %v, want %v", round, reader, lo, hi, got, want)
			}
		}
	}
}

// TestFilterVisibleRacesWriters filters while another goroutine appends,
// marks and commits deletes (run under -race). Rows committed before the
// reader's snapshot and never deleted at or below it must all survive
// every pass, whatever the writer is doing.
func TestFilterVisibleRacesWriters(t *testing.T) {
	v := NewVersions()
	const rows = 2000
	pos := make([]uint32, rows)
	for i := range pos {
		pos[i] = uint32(v.AppendCommitted(1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rows; i++ {
			if err := v.MarkDelete(i, 9); err != nil {
				t.Error(err)
				return
			}
			v.CommitDelete(i, Timestamp(10+i)) // after the reader's snapshot
			v.AppendPending(9)
		}
	}()
	buf := make([]uint32, rows)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		copy(buf, pos)
		if got := v.FilterVisible(buf, 5, 0); len(got) != rows {
			t.Fatalf("FilterVisible kept %d of %d rows live at the snapshot", len(got), rows)
		}
		if got := v.VisibleIn(0, v.Len(), 5, 0, buf[:0]); len(got) != rows {
			t.Fatalf("VisibleIn found %d rows, want %d", len(got), rows)
		}
	}
}

// TestStampsAndSetEnds covers the whole-store operations of a merge: a
// store built from begins holds committed live rows (the first shared,
// the rest dense); Stamps copies both vectors in one reading, unaffected
// by later writes; SetEnds stamps only the rows it names.
func TestStampsAndSetEnds(t *testing.T) {
	v := NewVersionsAt(0, 0, []Timestamp{3, 5, 7, 9})
	if v.Len() != 4 || v.LiveAt(6) != 2 || v.LiveAt(9) != 4 || v.Unsettled() {
		t.Fatalf("Len %d, live at 6: %d, at 9: %d", v.Len(), v.LiveAt(6), v.LiveAt(9))
	}
	if err := v.MarkDelete(1, 42); err != nil {
		t.Fatal(err)
	}
	v.CommitDelete(1, 11)
	begin, end := v.Stamps()
	if !slices.Equal(begin, []Timestamp{3, 5, 7, 9}) || !slices.Equal(end, []Timestamp{Infinity, 11, Infinity, Infinity}) {
		t.Fatalf("Stamps = %v %v", begin, end)
	}
	v.SetEnds([]int{0, 3}, []Timestamp{12, 13})
	if !slices.Equal(end, []Timestamp{Infinity, 11, Infinity, Infinity}) {
		t.Fatalf("Stamps' copy changed to %v", end)
	}
	if _, end = v.Stamps(); !slices.Equal(end, []Timestamp{12, 11, Infinity, 13}) {
		t.Fatalf("ends after SetEnds = %v", end)
	}
	if v.Visible(0, 12, 0) || !v.Visible(0, 11, 0) || !v.Visible(2, 100, 0) {
		t.Fatal("visibility does not follow the stamped ends")
	}
}
