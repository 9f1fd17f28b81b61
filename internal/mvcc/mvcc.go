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
	active      map[TxID]Timestamp // snapshot of every unfinished transaction or registered reader

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
// transaction or registered reader (QuiescedLastCommit) reads at, or the
// latest commit timestamp when there is none. The merge swap uses it as
// a purge watermark: rows deleted at or before this timestamp are
// invisible to every current and future reader and can be dropped;
// younger dead rows are re-based so open snapshots keep their exact
// visibility across the swap. A reader outside both sets must read its
// snapshot under the same lock hold as the structure it reads (see
// table.Table.PinLatest), or a swap in between may purge rows it sees.
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
// result as their snapshot timestamp. The timestamp stays registered as
// an active snapshot until release is called (once): a checkpoint reads
// its tables after this returns, and a merge swap in between must not
// purge a row deleted after the timestamp.
func (m *Manager) QuiescedLastCommit() (ts Timestamp, release func()) {
	m.gate.Lock()
	defer m.gate.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextTx // registered as a reader that never writes
	m.nextTx++
	m.active[id] = m.lastCommit
	return m.lastCommit, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.active, id)
	}
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
		allocated := false
		err := m.logCommit(ctx, t.redo, func() Timestamp {
			ts = m.allocLocked(t)
			allocated = true
			return ts
		})
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
		if err := m.logCommit(ctx, ops, alloc); err != nil {
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

// logCommit appends ops to the log as one commit record whose timestamp
// alloc allocates inside the append. When ctx carries a trace span, the
// append is recorded as its "wal.commit" child.
func (m *Manager) logCommit(ctx context.Context, ops []RedoOp, alloc func() Timestamp) error {
	span := trace.FromContext(ctx).Child("wal.commit", trace.Int("redo_ops", int64(len(ops))))
	_, err := m.dur.AppendCommit(trace.NewContext(ctx, span), alloc, ops)
	span.SetError(err)
	span.End()
	return err
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

// Versions stores the begin/end timestamps of one partition's rows plus
// provisional write ownership, in two parts. The shared rows [0, shared)
// are a main partition's rows as a merge built them: all inserted at
// base, none a provisional insert, so only an end or a delete intent can
// set one apart, and those few are held sparsely (exc). The rows from
// shared on keep dense vectors, row shared+i at index i: 32 bytes a row.
// A delta partition is all dense (shared is 0); a freshly merged main is
// all shared and holds a few words. Every answer is the one the dense
// vectors would give. All methods are safe for concurrent use.
type Versions struct {
	mu     sync.RWMutex
	shared int                  // rows [0, shared) were inserted at base
	base   Timestamp            // a commit timestamp when shared > 0
	exc    map[uint32]exception // the shared rows with an end or an intent
	begin  []Timestamp          // 0 while the inserting tx is uncommitted
	end    []Timestamp          // Infinity while live
	owner  []TxID               // inserting tx while the insert is provisional
	intent []TxID               // tx holding a provisional delete intent
}

// exception is what sets a shared row apart: its delete timestamp
// (Infinity while live) and the transaction holding its delete intent.
type exception struct {
	end    Timestamp
	intent TxID
}

// exceptionBytes is what Bytes counts for one exception: its row, end
// and intent.
const exceptionBytes = 4 + 8 + 8

// NewVersions returns an empty version store.
func NewVersions() *Versions { return &Versions{} }

// NewVersionsAt returns the version store of committed live rows: shared
// rows inserted at base, then one row per entry of tail, inserted at that
// entry — a merge's next main, whose rows keep their commit history,
// built in one step rather than one AppendAt per row. The entries that
// lead tail and equal base (when shared is 0: equal tail[0]) join the
// shared rows; the rest is copied, so the store never holds on to the
// caller's array.
func NewVersionsAt(shared int, base Timestamp, tail []Timestamp) *Versions {
	if shared == 0 && len(tail) > 0 {
		base = tail[0]
	}
	for len(tail) > 0 && tail[0] == base {
		shared, tail = shared+1, tail[1:]
	}
	v := &Versions{shared: shared, base: base, exc: map[uint32]exception{}}
	v.begin, v.end = append([]Timestamp(nil), tail...), make([]Timestamp, len(tail))
	v.owner, v.intent = make([]TxID, len(tail)), make([]TxID, len(tail))
	for i := range v.end {
		v.end[i] = Infinity
	}
	return v
}

// Len returns the number of rows tracked.
func (v *Versions) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.lenLocked()
}

// Shared returns how many leading rows share one begin, and that begin.
func (v *Versions) Shared() (rows int, begin Timestamp) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.shared, v.base
}

func (v *Versions) lenLocked() int { return v.shared + len(v.begin) }

// at reads row's entry from either part; the caller holds v.mu and row
// is in range.
func (v *Versions) at(row int) (begin, end Timestamp, owner, intent TxID) {
	if i := row - v.shared; i >= 0 {
		return v.begin[i], v.end[i], v.owner[i], v.intent[i]
	}
	e, ok := v.exc[uint32(row)]
	if !ok {
		e.end = Infinity
	}
	return v.base, e.end, 0, e.intent
}

// setEnd stores row's end and delete intent; the caller holds v.mu for
// writing. A shared row that is live and unclaimed again stops being an
// exception.
func (v *Versions) setEnd(row int, end Timestamp, intent TxID) {
	switch {
	case row >= v.shared:
		v.end[row-v.shared], v.intent[row-v.shared] = end, intent
	case end == Infinity && intent == 0:
		delete(v.exc, uint32(row))
	default:
		v.exc[uint32(row)] = exception{end: end, intent: intent}
	}
}

// sharedSeen reports whether the shared rows' begin admits a reader at
// snapshot; each shared row is then visible unless an exception hides it.
func (v *Versions) sharedSeen(snapshot Timestamp) bool {
	return v.base <= snapshot && snapshot != Infinity
}

// AppendAt adds a committed row with explicit begin and end timestamps.
// The online merge uses it to rebuild a partition's version store while
// preserving each row's original commit history, so readers holding
// snapshots older than the merge keep seeing exactly the rows they saw
// before the swap (end == Infinity for live rows).
func (v *Versions) AppendAt(begin, end Timestamp) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.appendLocked(1, begin, end, 0)
}

// AppendCommitted adds a row that is immediately visible from ts on
// (bulk loads, merge output).
func (v *Versions) AppendCommitted(ts Timestamp) int { return v.AppendCommittedN(1, ts) }

// AppendCommittedN adds n rows that are immediately visible from ts on,
// under one hold of the lock — a batch appended to a delta partition —
// and returns the first one's position.
func (v *Versions) AppendCommittedN(n int, ts Timestamp) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.appendLocked(n, ts, Infinity, 0)
}

// AppendPending adds a provisional row owned by tx; it becomes visible
// to others only after CommitInsert.
func (v *Versions) AppendPending(tx TxID) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.appendLocked(1, 0, Infinity, tx)
}

// appendLocked adds n dense rows alike and returns the first one's
// position.
func (v *Versions) appendLocked(n int, begin, end Timestamp, owner TxID) int {
	first := v.lenLocked()
	for range n {
		v.begin = append(v.begin, begin)
		v.end = append(v.end, end)
		v.owner = append(v.owner, owner)
		v.intent = append(v.intent, 0)
	}
	return first
}

// CommitInsert publishes a pending row at commit timestamp ts.
func (v *Versions) CommitInsert(row int, ts Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin[row-v.shared] = ts
	v.owner[row-v.shared] = 0
}

// AbortInsert invalidates a pending row (it stays allocated but is
// never visible).
func (v *Versions) AbortInsert(row int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.begin[row-v.shared] = Infinity
	v.end[row-v.shared] = 0
	v.owner[row-v.shared] = 0
}

// MarkDelete acquires the row's write intent for tx. It fails with
// ErrWriteConflict if another transaction holds the intent or the row is
// already deleted.
func (v *Versions) MarkDelete(row int, tx TxID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if row < 0 || row >= v.lenLocked() {
		return fmt.Errorf("mvcc: row %d out of range (%d rows)", row, v.lenLocked())
	}
	_, end, owner, intent := v.at(row)
	if intent != 0 && intent != tx {
		return ErrWriteConflict
	}
	if owner != 0 && owner != tx {
		// Another transaction's provisional insert cannot be deleted.
		return ErrWriteConflict
	}
	if end != Infinity {
		return ErrWriteConflict
	}
	v.setEnd(row, Infinity, tx)
	return nil
}

// CommitDelete finalizes a delete intent at commit timestamp ts.
func (v *Versions) CommitDelete(row int, ts Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.setEnd(row, ts, 0)
}

// AbortDelete releases a delete intent.
func (v *Versions) AbortDelete(row int, tx TxID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, end, _, intent := v.at(row); intent == tx {
		v.setEnd(row, end, 0)
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

// State returns a copy of row's version entry. The merge reads a
// carried row's interval with it.
func (v *Versions) State(row int) RowState {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if row < 0 || row >= v.lenLocked() {
		return RowState{Begin: Infinity, End: 0}
	}
	begin, end, owner, intent := v.at(row)
	return RowState{Begin: begin, End: end, Pending: (begin == 0 && owner != 0) || intent != 0}
}

// Stamps copies the begin and end of every row under one lock hold: the
// merge swap reads a frozen delta's rows this way, instead of one State
// call (and lock round trip) per row. A main's rows are read through
// Shared, Begins and DeletedAfter, which never touch a shared row.
func (v *Versions) Stamps() (begin, end []Timestamp) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	begin, end = make([]Timestamp, v.lenLocked()), make([]Timestamp, v.lenLocked())
	for row := range begin {
		begin[row], end[row], _, _ = v.at(row)
	}
	return begin, end
}

// Begins appends to out the begin of each of rows (all in range) under
// one lock hold.
func (v *Versions) Begins(rows []uint32, out []Timestamp) []Timestamp {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, row := range rows {
		begin, _, _, _ := v.at(int(row))
		out = append(out, begin)
	}
	return out
}

// DeletedAfter returns, ascending, the rows whose delete committed after
// ts and those deletes' timestamps, under one lock hold: the merge swap
// finds the deletes that committed during the rebuild from the
// exceptions and the dense rows, never reading a shared row.
func (v *Versions) DeletedAfter(ts Timestamp) (rows []int, ends []Timestamp) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rows = v.excRows(func(_ int, e exception) bool { return e.end > ts && e.end != Infinity })
	for i, end := range v.end {
		if end > ts && end != Infinity {
			rows = append(rows, v.shared+i)
		}
	}
	ends = make([]Timestamp, len(rows))
	for i, row := range rows {
		_, ends[i], _, _ = v.at(row)
	}
	return rows, ends
}

// SetEnds stamps end[rows[i]] = ends[i] for every i under one lock hold
// (no intent protocol): the swap replays onto the next main the deletes
// that committed against the old partitions while it was being built,
// and recovery replays a logged delete.
func (v *Versions) SetEnds(rows []int, ends []Timestamp) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, row := range rows {
		_, _, _, intent := v.at(row)
		v.setEnd(row, ends[i], intent)
	}
}

// Unsettled reports whether any row is in provisional state: an
// uncommitted insert or an unresolved delete intent. The merge swap
// waits until the partitions it is about to retire are settled, so no
// commit callback can race the version reconciliation.
func (v *Versions) Unsettled() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.excRows(func(_ int, e exception) bool { return e.intent != 0 })) > 0 {
		return true
	}
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

// visibleLocked is the one visibility rule; the caller holds v.mu. The
// batched readers below skip it only for shared rows, where it reduces
// to sharedSeen and the row's exception.
func (v *Versions) visibleLocked(row int, snapshot Timestamp, self TxID) bool {
	if row < 0 || row >= v.lenLocked() {
		return false
	}
	begin, end, owner, intent := v.at(row)
	switch {
	case self != 0 && intent == self: // self's pending delete hides the row from self
		return false
	case begin == 0: // provisional insert
		return self != 0 && owner == self
	case begin == Infinity, begin > snapshot: // aborted insert, or a later one
		return false
	}
	return end > snapshot
}

// FilterVisible keeps, in place and in order, the positions of pos that
// are visible at (snapshot, self), under one lock hold. Scans call it
// once per morsel on the rows that matched, so visibility costs a lock
// per morsel and a check per match, not either per row. Leading
// positions that are shared rows with no exception in the store need no
// check: on a main without deletes pos comes back untouched.
func (v *Versions) FilterVisible(pos []uint32, snapshot Timestamp, self TxID) []uint32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	i := 0
	if len(v.exc) == 0 && v.sharedSeen(snapshot) {
		for i < len(pos) && int(pos[i]) < v.shared {
			i++
		}
	}
	out := pos[:i]
	for _, p := range pos[i:] {
		if v.visibleLocked(int(p), snapshot, self) {
			out = append(out, p)
		}
	}
	return out
}

// VisibleIn appends to out the rows of [lo, hi) visible at (snapshot,
// self), ascending, under one lock hold. Shared rows are decided by
// their begin and the exceptions, never one by one.
func (v *Versions) VisibleIn(lo, hi int, snapshot Timestamp, self TxID, out []uint32) []uint32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	lo, hi = max(lo, 0), min(hi, v.lenLocked())
	if top := min(hi, v.shared); lo < top && v.sharedSeen(snapshot) {
		// The exceptions that hide a row its begin admits: deleted at or
		// before the snapshot, or under self's intent.
		hidden := v.excRows(func(row int, e exception) bool {
			return row >= lo && row < top && (e.end <= snapshot || self != 0 && e.intent == self)
		})
		for row := lo; row < top; row++ {
			if len(hidden) > 0 && hidden[0] == row {
				hidden = hidden[1:]
				continue
			}
			out = append(out, uint32(row))
		}
	}
	for row := max(lo, v.shared); row < hi; row++ {
		if v.visibleLocked(row, snapshot, self) {
			out = append(out, uint32(row))
		}
	}
	return out
}

// HiddenAt returns, ascending, the rows not visible at snapshot to a
// non-transactional reader: a checkpoint stores them with the main so
// the main's arrays can be stored whole. Shared rows are decided by their
// begin and the exceptions, never one by one, so on a main without
// deletes this reads only the dense rows.
func (v *Versions) HiddenAt(snapshot Timestamp) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var rows []int
	if v.sharedSeen(snapshot) {
		rows = v.excRows(func(_ int, e exception) bool { return e.end <= snapshot })
	} else {
		for row := range v.shared {
			rows = append(rows, row)
		}
	}
	for row := v.shared; row < v.lenLocked(); row++ {
		if !v.visibleLocked(row, snapshot, 0) {
			rows = append(rows, row)
		}
	}
	return rows
}

// excRows lists, ascending, the shared rows whose exception hit accepts.
func (v *Versions) excRows(hit func(row int, e exception) bool) []int {
	var rows []int
	for row, e := range v.exc {
		if hit(int(row), e) {
			rows = append(rows, int(row))
		}
	}
	slices.Sort(rows)
	return rows
}

// LiveAt returns how many rows are visible at the given snapshot for a
// non-transactional reader.
func (v *Versions) LiveAt(snapshot Timestamp) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	if v.sharedSeen(snapshot) {
		n = v.shared - len(v.excRows(func(_ int, e exception) bool { return e.end <= snapshot }))
	}
	for row := v.shared; row < v.lenLocked(); row++ {
		if v.visibleLocked(row, snapshot, 0) {
			n++
		}
	}
	return n
}

// Bytes returns the DRAM footprint of the version state (always
// DRAM-resident, per the paper's transaction-handling design): 32 bytes
// a dense row, exceptionBytes an exception, nothing a shared row.
func (v *Versions) Bytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return int64(len(v.begin))*(8+8+8+8) + int64(len(v.exc))*exceptionBytes
}
