package mvcc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"tierdb/internal/value"
)

// fakeLog captures appended commits in order, optionally failing.
type fakeLog struct {
	mu   sync.Mutex
	ts   []Timestamp
	ops  [][]RedoOp
	fail error
}

func (f *fakeLog) AppendCommit(_ context.Context, alloc func() Timestamp, ops []RedoOp) (Timestamp, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return 0, f.fail
	}
	ts := alloc()
	f.ts = append(f.ts, ts)
	f.ops = append(f.ops, ops)
	return ts, nil
}

func TestCommitLogsRedo(t *testing.T) {
	m := NewManager()
	log := &fakeLog{}
	m.SetDurability(log)
	tx := m.Begin()
	tx.LogRedo(RedoOp{Table: "t", Row: []value.Value{value.NewInt(1)}})
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.ts) != 1 || log.ts[0] != ts {
		t.Fatalf("logged ts %v, committed %d", log.ts, ts)
	}
	if len(log.ops[0]) != 1 || log.ops[0][0].Table != "t" {
		t.Fatalf("logged ops %+v", log.ops[0])
	}
	// A read-only transaction must not touch the log.
	ro := m.Begin()
	if _, err := m.Commit(ro); err != nil {
		t.Fatal(err)
	}
	if len(log.ts) != 1 {
		t.Fatalf("read-only commit was logged")
	}
}

func TestCommitRollsBackOnLogFailure(t *testing.T) {
	m := NewManager()
	boom := errors.New("disk gone")
	m.SetDurability(&fakeLog{fail: boom})
	tx := m.Begin()
	tx.LogRedo(RedoOp{Table: "t"})
	aborted := false
	tx.OnAbort(func() { aborted = true })
	if _, err := m.Commit(tx); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !aborted || tx.status != Aborted {
		t.Fatalf("failed commit must roll back (aborted=%v status=%v)", aborted, tx.status)
	}
	// The manager must not leak the transaction as active.
	if got := m.OldestActiveSnapshot(); got != m.LastCommit() {
		t.Fatalf("aborted tx still pins snapshot %d", got)
	}
}

// TestCommitOrderMatchesLogOrder hammers concurrent commits and checks
// the invariant the replay path depends on: the log's append order is
// exactly commit-timestamp order.
func TestCommitOrderMatchesLogOrder(t *testing.T) {
	m := NewManager()
	log := &fakeLog{}
	m.SetDurability(log)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tx := m.Begin()
				tx.LogRedo(RedoOp{Table: "t"})
				if _, err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(log.ts) != 1600 {
		t.Fatalf("logged %d commits, want 1600", len(log.ts))
	}
	for i := 1; i < len(log.ts); i++ {
		if log.ts[i] <= log.ts[i-1] {
			t.Fatalf("log order violates ts order at %d: %d after %d", i, log.ts[i], log.ts[i-1])
		}
	}
}

func TestBulkCommitAppliesUnderGate(t *testing.T) {
	m := NewManager()
	log := &fakeLog{}
	m.SetDurability(log)
	ops := []RedoOp{{Table: "t", Row: []value.Value{value.NewInt(7)}}}
	var applied Timestamp
	ts, err := m.BulkCommitCtx(context.Background(), ops, func(ts Timestamp) error {
		applied = ts
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != ts || len(log.ts) != 1 || log.ts[0] != ts {
		t.Fatalf("apply ts %d, commit ts %d, logged %v", applied, ts, log.ts)
	}
	if m.LastCommit() != ts {
		t.Fatalf("clock %d, want %d", m.LastCommit(), ts)
	}
}

func TestQuiescedLastCommitAndAdvanceTo(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	q, release := m.QuiescedLastCommit()
	if q != m.LastCommit() {
		t.Fatalf("quiesced %d != last commit %d", q, m.LastCommit())
	}
	// The quiesced timestamp holds the purge watermark down until it is
	// released, however far commits move on.
	if _, err := m.Commit(m.Begin()); err != nil {
		t.Fatal(err)
	}
	if got := m.OldestActiveSnapshot(); got != q {
		t.Fatalf("watermark %d while the quiesced snapshot %d is held", got, q)
	}
	release()
	if got := m.OldestActiveSnapshot(); got != m.LastCommit() {
		t.Fatalf("watermark %d after release, want last commit %d", got, m.LastCommit())
	}
	m.AdvanceTo(100)
	if m.LastCommit() != 100 {
		t.Fatalf("AdvanceTo: clock %d, want 100", m.LastCommit())
	}
	m.AdvanceTo(5) // never moves backwards
	if m.LastCommit() != 100 {
		t.Fatalf("AdvanceTo moved clock backwards to %d", m.LastCommit())
	}
}

// slowLog allocates the commit timestamp and then holds the commit
// until released — a log whose fsync is still in flight.
type slowLog struct {
	allocated chan Timestamp
	release   chan struct{}
}

func (l *slowLog) AppendCommit(_ context.Context, alloc func() Timestamp, _ []RedoOp) (Timestamp, error) {
	ts := alloc()
	l.allocated <- ts
	<-l.release
	return ts, nil
}

// TestSnapshotExcludesUnpublishedCommit pins the publication rule: a
// transaction that begins while a commit holds a timestamp but has not
// stamped its rows yet must read below that timestamp, or the rows
// would appear half-way through it; once the commit is acknowledged,
// new snapshots include it.
func TestSnapshotExcludesUnpublishedCommit(t *testing.T) {
	m := NewManager()
	log := &slowLog{allocated: make(chan Timestamp), release: make(chan struct{})}
	m.SetDurability(log)
	v := NewVersions()

	writer := m.Begin()
	row := v.AppendPending(writer.ID())
	writer.LogRedo(RedoOp{Table: "t"})
	writer.OnCommit(func(ts Timestamp) { v.CommitInsert(row, ts) })
	done := make(chan Timestamp)
	go func() {
		ts, err := m.Commit(writer)
		if err != nil {
			t.Error(err)
		}
		done <- ts
	}()

	ts := <-log.allocated
	reader := m.Begin()
	if reader.Snapshot() >= ts {
		t.Errorf("reader began at %d while commit %d was still unpublished", reader.Snapshot(), ts)
	}
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("unpublished row visible")
	}
	close(log.release)
	if got := <-done; got != ts {
		t.Fatalf("committed at %d, allocated %d", got, ts)
	}
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("row appeared inside a transaction that began before its commit was published")
	}
	if m.LastCommit() != ts {
		t.Errorf("LastCommit = %d after the commit at %d was acknowledged", m.LastCommit(), ts)
	}
	if !v.Visible(row, m.Begin().Snapshot(), 0) {
		t.Error("acknowledged row invisible to a new transaction")
	}
}
