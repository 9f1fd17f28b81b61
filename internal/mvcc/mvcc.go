// Package mvcc implements the multi-version concurrency control scheme
// the engine uses for ACID compliance (paper Section II, cf. Hyrise's
// MVCC): every row carries begin/end commit timestamps, transactions
// read a snapshot, writes are provisional until commit, and write-write
// conflicts abort. MVCC columns always stay DRAM-resident (Section IV,
// "Transaction Handling"), which is why tiering does not impact
// transactional performance.
package mvcc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"tierdb/internal/metrics"
	"tierdb/internal/trace"
)

// Timestamp is a commit timestamp. Snapshot isolation: a transaction
// sees all versions committed at or before its snapshot.
type Timestamp = uint64

// TxID identifies a transaction.
type TxID = uint64

// Infinity marks a version that has not been deleted.
const Infinity Timestamp = math.MaxUint64

// ErrWriteConflict is returned when two transactions try to delete or
// update the same row.
var ErrWriteConflict = errors.New("mvcc: write-write conflict")

// ErrTxFinished is returned when operating on a committed or aborted
// transaction.
var ErrTxFinished = errors.New("mvcc: transaction already finished")

// Status is a transaction's lifecycle state.
type Status int

const (
	// Active transactions can read and write.
	Active Status = iota
	// Committed transactions have published their writes.
	Committed
	// Aborted transactions have rolled their writes back.
	Aborted
)

// Tx is one transaction handle.
type Tx struct {
	id       TxID
	snapshot Timestamp
	status   Status
	mgr      *Manager
	// onCommit callbacks stamp pending rows with the commit timestamp;
	// onAbort callbacks roll provisional state back.
	onCommit []func(ts Timestamp)
	onAbort  []func()
	// redo buffers the transaction's logical writes for the write-ahead
	// log; empty when durability is off.
	redo []RedoOp
}

// ID returns the transaction id.
func (t *Tx) ID() TxID { return t.id }

// Snapshot returns the snapshot timestamp the transaction reads at.
func (t *Tx) Snapshot() Timestamp { return t.snapshot }

// Status returns the lifecycle state.
func (t *Tx) Status() Status { return t.status }

// OnCommit registers a callback run with the commit timestamp.
func (t *Tx) OnCommit(fn func(ts Timestamp)) { t.onCommit = append(t.onCommit, fn) }

// OnAbort registers a rollback callback.
func (t *Tx) OnAbort(fn func()) { t.onAbort = append(t.onAbort, fn) }

// LogRedo buffers one logical write for the write-ahead log; callers
// only log when durability is configured.
func (t *Tx) LogRedo(op RedoOp) { t.redo = append(t.redo, op) }

// Redo exposes the buffered redo ops (tests, diagnostics).
func (t *Tx) Redo() []RedoOp { return t.redo }

// Manager hands out transactions and commit timestamps.
type Manager struct {
	mu sync.Mutex
	// lastCommit is the snapshot new transactions read: the newest
	// timestamp with every commit at or below it published (rows
	// stamped). allocated is the newest timestamp handed out; commits in
	// unpublished hold one but are still being made durable or stamped.
	// A snapshot taken at allocated instead would see such a commit's
	// rows appear part-way through the reading transaction.
	lastCommit  Timestamp
	allocated   Timestamp
	unpublished map[Timestamp]struct{}
	published   *sync.Cond // on mu: lastCommit advanced
	nextTx      TxID
	active      map[TxID]Timestamp // snapshot of every unfinished transaction

	// gate is the commit gate: every commit holds it shared from
	// timestamp allocation through write publication, and a checkpoint
	// holds it exclusively (QuiescedLastCommit) to obtain a timestamp
	// with no commit at or below it still unpublished. Without it a
	// snapshot could miss a committed-but-not-yet-stamped row whose log
	// record is then truncated — a lost write.
	gate sync.RWMutex
	// dur, when set, receives every committed transaction's redo ops
	// before the commit is acknowledged.
	dur Durability

	// Per-transaction lifecycle counters (nil → no-op). Visibility
	// checks are deliberately not counted here: they run per row on the
	// scan hot path and are accounted batched by the callers instead.
	cBegin  *metrics.Counter
	cCommit *metrics.Counter
	cAbort  *metrics.Counter
}

// NewManager returns a manager; timestamp 0 is "before all data", so
// freshly loaded (non-transactional) data is stamped with timestamp 1.
func NewManager() *Manager {
	m := &Manager{
		lastCommit: 1, allocated: 1, nextTx: 1,
		unpublished: make(map[Timestamp]struct{}),
		active:      make(map[TxID]Timestamp),
	}
	m.published = sync.NewCond(&m.mu)
	return m
}

// Observe registers transaction-lifecycle counters (mvcc.tx.begin,
// mvcc.tx.commit, mvcc.tx.abort) with a metrics registry.
func (m *Manager) Observe(r *metrics.Registry) {
	m.cBegin = r.Counter("mvcc.tx.begin")
	m.cCommit = r.Counter("mvcc.tx.commit")
	m.cAbort = r.Counter("mvcc.tx.abort")
}

// Begin starts a transaction reading the latest committed snapshot.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &Tx{id: m.nextTx, snapshot: m.lastCommit, mgr: m}
	m.nextTx++
	m.active[tx.id] = tx.snapshot
	m.cBegin.Inc()
	return tx
}

// OldestActiveSnapshot returns the smallest snapshot any unfinished
// transaction reads at, or the latest commit timestamp when none is
// active. The merge swap uses it as a purge watermark: rows deleted at
// or before this timestamp are invisible to every current and future
// reader and can be dropped; younger dead rows are re-based so open
// snapshots keep their exact visibility across the swap.
func (m *Manager) OldestActiveSnapshot() Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.lastCommit
	for _, snap := range m.active {
		if snap < oldest {
			oldest = snap
		}
	}
	return oldest
}

// LastCommit returns the newest commit timestamp (the snapshot new
// transactions will read).
func (m *Manager) LastCommit() Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastCommit
}

// SetDurability wires a write-ahead log into the commit path. Call it
// before the first transaction; nil turns durability off.
func (m *Manager) SetDurability(d Durability) { m.dur = d }

// AdvanceTo raises the commit clock to at least ts. Recovery calls it
// after replay so fresh commits never reuse a logged timestamp.
func (m *Manager) AdvanceTo(ts Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.allocated = max(m.allocated, ts)
	m.lastCommit = max(m.lastCommit, ts)
}

// QuiescedLastCommit returns the newest commit timestamp with the
// guarantee that every commit at or below it is fully published (rows
// stamped, visible to snapshot scans). It acquires the commit gate
// exclusively, so it waits out in-flight commits; checkpoints use the
// result as their snapshot timestamp.
func (m *Manager) QuiescedLastCommit() Timestamp {
	m.gate.Lock()
	defer m.gate.Unlock()
	return m.LastCommit()
}

// allocLocked assigns the next commit timestamp and retires t from the
// active set; called (possibly via the durability layer) under the
// commit gate. The timestamp stays invisible to new snapshots until
// publish.
func (m *Manager) allocLocked(t *Tx) Timestamp {
	m.mu.Lock()
	m.allocated++
	ts := m.allocated
	m.unpublished[ts] = struct{}{}
	if t != nil {
		delete(m.active, t.id)
	}
	m.mu.Unlock()
	return ts
}

// publish marks the commit at ts as stamped (or rolled back) and returns
// once every commit at or below ts is: only then may new snapshots
// include ts, and only then is the commit acknowledged, so a caller
// always reads its own acknowledged write.
func (m *Manager) publish(ts Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.unpublished, ts)
	watermark := m.allocated
	for pending := range m.unpublished {
		watermark = min(watermark, pending-1)
	}
	if watermark > m.lastCommit {
		m.lastCommit = watermark
		m.published.Broadcast()
	}
	for m.lastCommit < ts {
		m.published.Wait()
	}
}

// Commit makes the transaction durable (when a log is configured) and
// publishes its writes under the commit gate. It is CommitCtx without
// a trace context.
func (m *Manager) Commit(t *Tx) (Timestamp, error) {
	return m.CommitCtx(context.Background(), t)
}

// CommitCtx makes the transaction durable (when a log is configured)
// and publishes its writes under the commit gate. The timestamp is
// allocated inside the log's append critical section, so log order
// equals commit order. If the log append fails the transaction is
// rolled back and the error returned: nothing was acknowledged, nothing
// becomes visible.
//
// When ctx carries a trace span, the durable part of the commit is
// recorded as a "wal.commit" child span (with "wal.append"/"wal.fsync"
// grandchildren from the log itself).
func (m *Manager) CommitCtx(ctx context.Context, t *Tx) (Timestamp, error) {
	if t.status != Active {
		return 0, ErrTxFinished
	}
	m.gate.RLock()
	var ts Timestamp
	if m.dur != nil && len(t.redo) > 0 {
		span := trace.FromContext(ctx).Child("wal.commit", trace.Int("redo_ops", int64(len(t.redo))))
		allocated := false
		_, err := m.dur.AppendCommit(trace.NewContext(ctx, span), func() Timestamp {
			ts = m.allocLocked(t)
			allocated = true
			return ts
		}, t.redo)
		span.SetError(err)
		span.End()
		if err != nil {
			m.gate.RUnlock()
			if !allocated {
				m.mu.Lock()
				delete(m.active, t.id)
				m.mu.Unlock()
			}
			for i := len(t.onAbort) - 1; i >= 0; i-- {
				t.onAbort[i]()
			}
			if allocated {
				m.publish(ts)
			}
			t.status = Aborted
			m.cAbort.Inc()
			return 0, fmt.Errorf("mvcc: commit not durable, rolled back: %w", err)
		}
	} else {
		ts = m.allocLocked(t)
	}
	for _, fn := range t.onCommit {
		fn(ts)
	}
	m.publish(ts)
	m.gate.RUnlock()
	t.status = Committed
	m.cCommit.Inc()
	return ts, nil
}

// BulkCommit is BulkCommitCtx without a trace context.
func (m *Manager) BulkCommit(ops []RedoOp, apply func(ts Timestamp) error) (Timestamp, error) {
	return m.BulkCommitCtx(context.Background(), ops, apply)
}

// BulkCommitCtx allocates one commit timestamp for a non-transactional
// bulk write, logs ops (when durability is configured) and runs apply
// with the timestamp — all under the commit gate, so a concurrent
// checkpoint either sees the rows applied or replays their log record,
// never neither.
func (m *Manager) BulkCommitCtx(ctx context.Context, ops []RedoOp, apply func(ts Timestamp) error) (Timestamp, error) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	var ts Timestamp
	alloc := func() Timestamp {
		ts = m.allocLocked(nil)
		return ts
	}
	// Whatever happens after the allocation — append failure, apply
	// failure, success — the timestamp is published, still inside the
	// gate: an unpublished one would hold every later commit back.
	defer func() {
		if ts != 0 {
			m.publish(ts)
		}
	}()
	if m.dur != nil && len(ops) > 0 {
		span := trace.FromContext(ctx).Child("wal.commit", trace.Int("redo_ops", int64(len(ops))))
		_, err := m.dur.AppendCommit(trace.NewContext(ctx, span), alloc, ops)
		span.SetError(err)
		span.End()
		if err != nil {
			return 0, err
		}
	} else {
		alloc()
	}
	if apply != nil {
		if err := apply(ts); err != nil {
			return ts, err
		}
	}
	return ts, nil
}

// Abort rolls the transaction's provisional writes back.
func (m *Manager) Abort(t *Tx) error {
	if t.status != Active {
		return ErrTxFinished
	}
	for i := len(t.onAbort) - 1; i >= 0; i-- {
		t.onAbort[i]()
	}
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
	t.status = Aborted
	m.cAbort.Inc()
	return nil
}

// Versions stores the begin/end timestamp vectors of one partition's
// rows plus provisional write ownership. All methods are safe for
// concurrent use.
type Versions struct {
	mu     sync.RWMutex
	begin  []Timestamp // 0 while the inserting tx is uncommitted
	end    []Timestamp // Infinity while live
	owner  []TxID      // inserting tx while the insert is provisional
	intent []TxID      // tx holding a provisional delete intent
}

// NewVersions returns an empty version store.
func NewVersions() *Versions { return &Versions{} }

// NewVersionsAt returns the version store of committed live rows, row i
// inserted at begins[i], which it takes over: a merge's next main, whose
// rows keep their commit history, built in one step rather than one
// AppendAt per row.
func NewVersionsAt(begins []Timestamp) *Versions {
	v := &Versions{begin: begins, end: make([]Timestamp, len(begins)), owner: make([]TxID, len(begins)), intent: make([]TxID, len(begins))}
	for i := range v.end {
		v.end[i] = Infinity
	}
	return v
}

// Len returns the number of rows tracked.
func (v *Versions) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.begin)
}

// AppendAt adds a committed row with explicit begin and end timestamps.
// The online merge uses it to rebuild a partition's version store while
// preserving each row's original commit history, so readers holding
// snapshots older than the merge keep seeing exactly the rows they saw
// before the swap (end == Infinity for live rows).
func (v *Versions) AppendAt(begin, end Timestamp) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin = append(v.begin, begin)
	v.end = append(v.end, end)
	v.owner = append(v.owner, 0)
	v.intent = append(v.intent, 0)
	return len(v.begin) - 1
}

// AppendCommitted adds a row that is immediately visible from ts on
// (bulk loads, merge output).
func (v *Versions) AppendCommitted(ts Timestamp) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin = append(v.begin, ts)
	v.end = append(v.end, Infinity)
	v.owner = append(v.owner, 0)
	v.intent = append(v.intent, 0)
	return len(v.begin) - 1
}

// AppendPending adds a provisional row owned by tx; it becomes visible
// to others only after CommitInsert.
func (v *Versions) AppendPending(tx TxID) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin = append(v.begin, 0)
	v.end = append(v.end, Infinity)
	v.owner = append(v.owner, tx)
	v.intent = append(v.intent, 0)
	return len(v.begin) - 1
}

// CommitInsert publishes a pending row at commit timestamp ts.
func (v *Versions) CommitInsert(row int, ts Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin[row] = ts
	v.owner[row] = 0
}

// AbortInsert invalidates a pending row (it stays allocated but is
// never visible).
func (v *Versions) AbortInsert(row int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin[row] = Infinity
	v.end[row] = 0
	v.owner[row] = 0
}

// MarkDelete acquires the row's write intent for tx. It fails with
// ErrWriteConflict if another transaction holds the intent or the row is
// already deleted.
func (v *Versions) MarkDelete(row int, tx TxID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if row < 0 || row >= len(v.begin) {
		return fmt.Errorf("mvcc: row %d out of range (%d rows)", row, len(v.begin))
	}
	if v.intent[row] != 0 && v.intent[row] != tx {
		return ErrWriteConflict
	}
	if v.owner[row] != 0 && v.owner[row] != tx {
		// Another transaction's provisional insert cannot be deleted.
		return ErrWriteConflict
	}
	if v.end[row] != Infinity {
		return ErrWriteConflict
	}
	v.intent[row] = tx
	return nil
}

// CommitDelete finalizes a delete intent at commit timestamp ts.
func (v *Versions) CommitDelete(row int, ts Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.end[row] = ts
	v.intent[row] = 0
}

// AbortDelete releases a delete intent.
func (v *Versions) AbortDelete(row int, tx TxID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.intent[row] == tx {
		v.intent[row] = 0
	}
}

// RowState is a point-in-time copy of one row's version vector entry.
type RowState struct {
	// Begin is the insert commit timestamp: 0 while the insert is
	// provisional, Infinity after an aborted insert.
	Begin Timestamp
	// End is the delete commit timestamp (Infinity while live).
	End Timestamp
	// Pending reports provisional state: an uncommitted insert or an
	// unresolved delete intent.
	Pending bool
}

// State returns a copy of row's version entry. The merge swap uses it to
// reconcile deletes that committed while the rebuild ran off-lock.
func (v *Versions) State(row int) RowState {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if row < 0 || row >= len(v.begin) {
		return RowState{Begin: Infinity, End: 0}
	}
	return RowState{
		Begin:   v.begin[row],
		End:     v.end[row],
		Pending: (v.begin[row] == 0 && v.owner[row] != 0) || v.intent[row] != 0,
	}
}

// Stamps copies the begin and end vectors under one lock hold: the
// merge classifies a whole partition's rows from one reading, and the
// swap finds the deletes that committed during the rebuild the same way,
// instead of one State call (and lock round trip) per row.
func (v *Versions) Stamps() (begin, end []Timestamp) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return slices.Clone(v.begin), slices.Clone(v.end)
}

// SetEnds stamps end[rows[i]] = ends[i] for every i under one lock hold
// (no intent protocol): the swap replays onto the next main the deletes
// that committed against the old partitions while it was being built,
// and recovery replays a logged delete.
func (v *Versions) SetEnds(rows []int, ends []Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, row := range rows {
		v.end[row] = ends[i]
	}
}

// Unsettled reports whether any row is in provisional state: an
// uncommitted insert or an unresolved delete intent. The merge swap
// waits until the partitions it is about to retire are settled, so no
// commit callback can race the version reconciliation.
func (v *Versions) Unsettled() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := range v.begin {
		if (v.begin[i] == 0 && v.owner[i] != 0) || v.intent[i] != 0 {
			return true
		}
	}
	return false
}

// Visible reports whether row is visible to a reader with the given
// snapshot and transaction id (a transaction sees its own provisional
// writes; self may be 0 for non-transactional readers). It takes the
// lock for one row: anything that asks about many rows uses
// FilterVisible or VisibleIn.
func (v *Versions) Visible(row int, snapshot Timestamp, self TxID) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.visibleLocked(row, snapshot, self)
}

// visibleLocked is the one visibility rule; the caller holds v.mu.
func (v *Versions) visibleLocked(row int, snapshot Timestamp, self TxID) bool {
	if row < 0 || row >= len(v.begin) {
		return false
	}
	// A pending delete intent by self hides the row from self. A reader
	// outside a transaction never looks at intent or owner: a scan then
	// walks two of the four vectors.
	if self != 0 && v.intent[row] == self {
		return false
	}
	begin := v.begin[row]
	if begin == 0 { // provisional insert
		return self != 0 && v.owner[row] == self
	}
	if begin == Infinity { // aborted insert
		return false
	}
	if begin > snapshot {
		return false
	}
	return v.end[row] > snapshot
}

// FilterVisible keeps, in place and in order, the positions of pos that
// are visible at (snapshot, self), under one lock hold. Scans call it
// once per morsel on the rows that matched, so visibility costs a lock
// per morsel and a check per match, not either per row.
func (v *Versions) FilterVisible(pos []uint32, snapshot Timestamp, self TxID) []uint32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := pos[:0]
	for _, p := range pos {
		if v.visibleLocked(int(p), snapshot, self) {
			out = append(out, p)
		}
	}
	return out
}

// VisibleIn appends to out the rows of [lo, hi) visible at (snapshot,
// self), ascending, under one lock hold.
func (v *Versions) VisibleIn(lo, hi int, snapshot Timestamp, self TxID, out []uint32) []uint32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for row := max(lo, 0); row < min(hi, len(v.begin)); row++ {
		if v.visibleLocked(row, snapshot, self) {
			out = append(out, uint32(row))
		}
	}
	return out
}

// LiveAt returns how many rows are visible at the given snapshot for a
// non-transactional reader.
func (v *Versions) LiveAt(snapshot Timestamp) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for i := range v.begin {
		if v.visibleLocked(i, snapshot, 0) {
			n++
		}
	}
	return n
}

// Bytes returns the DRAM footprint of the version vectors (always
// DRAM-resident, per the paper's transaction-handling design).
func (v *Versions) Bytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return int64(len(v.begin)) * (8 + 8 + 8 + 8)
}
