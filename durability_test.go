package tierdb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"tierdb/internal/wal"
)

// walConfig opens a DB on an injected in-memory filesystem.
func walConfig(fs wal.FS, policy SyncPolicy) Config {
	return Config{
		WALDir:     "wal",
		SyncPolicy: policy,
		// Long enough that the SyncGroup flusher never fires during a
		// test: background syncs would make crash states nondeterministic.
		groupInterval: time.Hour,
		walFS:         fs,
	}
}

var walFields = []Field{
	{Name: "id", Type: Int64Type},
	{Name: "tag", Type: StringType, Width: 8},
}

// rowState is the oracle's view of one table: whether it exists and the
// multiset of visible (id, tag) tuples.
type rowState struct {
	exists bool
	rows   map[string]int
}

func mkState(keys ...string) rowState {
	s := rowState{exists: true, rows: map[string]int{}}
	for _, k := range keys {
		s.rows[k]++
	}
	return s
}

func stateEqual(a, b rowState) bool {
	if a.exists != b.exists || len(a.rows) != len(b.rows) {
		return false
	}
	for k, n := range a.rows {
		if b.rows[k] != n {
			return false
		}
	}
	return true
}

func (s rowState) String() string {
	if !s.exists {
		return "<no table>"
	}
	keys := make([]string, 0, len(s.rows))
	for k, n := range s.rows {
		keys = append(keys, fmt.Sprintf("%s x%d", k, n))
	}
	return "{" + strings.Join(keys, ", ") + "}"
}

// visibleState reads the recovered database's actual state.
func visibleState(t *testing.T, db *DB) rowState {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		return rowState{}
	}
	got := rowState{exists: true, rows: map[string]int{}}
	inner := tbl.Inner()
	snap := inner.Manager().LastCommit()
	v := inner.Pin()
	defer v.Release()
	for id := RowID(0); id < RowID(v.MainRows()+v.FrozenRows()+v.ActiveRows()); id++ {
		if !v.Visible(id, snap, 0) {
			continue
		}
		tuple, err := v.GetTuple(id)
		if err != nil {
			t.Fatalf("visible row %d unreadable: %v", id, err)
		}
		got.rows[fmt.Sprintf("%d|%s", tuple[0].Int(), tuple[1].Str())]++
	}
	return got
}

// findRowID locates a visible row by content (row ids are not stable
// across merges, so scripts address rows the way redo records do).
func findRowID(t *testing.T, tbl *Table, id int64, tag string) RowID {
	t.Helper()
	inner := tbl.Inner()
	snap := inner.Manager().LastCommit()
	v := inner.Pin()
	defer v.Release()
	for r := RowID(0); r < RowID(v.MainRows()+v.FrozenRows()+v.ActiveRows()); r++ {
		if !v.Visible(r, snap, 0) {
			continue
		}
		tuple, err := v.GetTuple(r)
		if err != nil {
			t.Fatalf("get tuple %d: %v", r, err)
		}
		if tuple[0].Int() == id && tuple[1].Str() == tag {
			return r
		}
	}
	t.Fatalf("no visible row (%d, %s)", id, tag)
	return 0
}

// walStep is one scripted, individually-acknowledged operation plus the
// exact state the database must show once the step is durable.
type walStep struct {
	name string
	// barrier marks a step whose acknowledgement forces ALL prior state
	// durable regardless of sync policy (checkpoints fsync internally).
	barrier bool
	run     func(t *testing.T, db *DB) error
	state   rowState
}

func insertStep(name string, id int64, tag string, after rowState) walStep {
	return walStep{name: name, state: after, run: func(t *testing.T, db *DB) error {
		tbl, err := db.Table("t")
		if err != nil {
			return err
		}
		return tbl.Insert([]Value{Int(id), String(tag)})
	}}
}

// crashScript is the deterministic workload the sweep drives: DDL, single
// and multi-op transactions, a content-addressed delete, a bulk load
// whose merge relocates rows, a mid-stream checkpoint, and an update.
// states[i] below is the expected visible state after the first i steps.
func crashScript() []walStep {
	return []walStep{
		{name: "create", state: mkState(), run: func(t *testing.T, db *DB) error {
			_, err := db.CreateTable("t", walFields)
			return err
		}},
		insertStep("ins1", 1, "a", mkState("1|a")),
		insertStep("ins2", 2, "b", mkState("1|a", "2|b")),
		{name: "txpair", state: mkState("1|a", "2|b", "3|c", "4|d"), run: func(t *testing.T, db *DB) error {
			tbl, err := db.Table("t")
			if err != nil {
				return err
			}
			tx := db.Begin()
			if err := tbl.InsertTx(tx, []Value{Int(3), String("c")}); err != nil {
				db.Abort(tx)
				return err
			}
			if err := tbl.InsertTx(tx, []Value{Int(4), String("d")}); err != nil {
				db.Abort(tx)
				return err
			}
			return db.Commit(tx)
		}},
		{name: "del2", state: mkState("1|a", "3|c", "4|d"), run: func(t *testing.T, db *DB) error {
			tbl, err := db.Table("t")
			if err != nil {
				return err
			}
			id := findRowID(t, tbl, 2, "b")
			tx := db.Begin()
			if err := tbl.Delete(tx, id); err != nil {
				db.Abort(tx)
				return err
			}
			return db.Commit(tx)
		}},
		{name: "bulk", state: mkState("1|a", "3|c", "4|d", "5|e", "6|f"), run: func(t *testing.T, db *DB) error {
			tbl, err := db.Table("t")
			if err != nil {
				return err
			}
			return tbl.BulkLoad([][]Value{
				{Int(5), String("e")},
				{Int(6), String("f")},
			})
		}},
		{name: "ckpt", barrier: true, state: mkState("1|a", "3|c", "4|d", "5|e", "6|f"), run: func(t *testing.T, db *DB) error {
			return db.Checkpoint()
		}},
		insertStep("ins7", 7, "g", mkState("1|a", "3|c", "4|d", "5|e", "6|f", "7|g")),
		{name: "upd1", state: mkState("1|A", "3|c", "4|d", "5|e", "6|f", "7|g"), run: func(t *testing.T, db *DB) error {
			tbl, err := db.Table("t")
			if err != nil {
				return err
			}
			id := findRowID(t, tbl, 1, "a")
			tx := db.Begin()
			if err := tbl.Update(tx, id, []Value{Int(1), String("A")}); err != nil {
				db.Abort(tx)
				return err
			}
			return db.Commit(tx)
		}},
		insertStep("ins8", 8, "h", mkState("1|A", "3|c", "4|d", "5|e", "6|f", "7|g", "8|h")),
	}
}

// scriptStates returns the oracle state sequence: states[0] is the empty
// database, states[i] the state after the first i steps.
func scriptStates(steps []walStep) []rowState {
	states := make([]rowState, len(steps)+1)
	states[0] = rowState{}
	for i, s := range steps {
		states[i+1] = s.state
	}
	return states
}

// runScript drives the workload until it completes or the injected
// crash poisons the filesystem. It returns how many steps were
// acknowledged and how many were attempted (acked plus at most one
// in-flight step whose record may or may not have reached the disk).
func runScript(t *testing.T, fs *wal.CrashFS, policy SyncPolicy) (acked, attempted int) {
	t.Helper()
	steps := crashScript()
	db, err := Open(walConfig(fs, policy))
	if err != nil {
		if !fs.Crashed() {
			t.Fatalf("open failed without a crash: %v", err)
		}
		return 0, 0
	}
	defer db.Close() // post-crash close errors are expected; ignore
	for i, s := range steps {
		attempted = i + 1
		if err := s.run(t, db); err != nil {
			if !fs.Crashed() {
				t.Fatalf("step %s failed without a crash: %v", s.name, err)
			}
			return acked, attempted
		}
		acked = i + 1
	}
	return acked, attempted
}

// checkRecovered opens a recovered filesystem image and asserts the
// visible state is prefix-consistent: exactly the state after some
// prefix of the acked+in-flight step sequence, no shorter than the
// durability floor the sync policy guarantees.
func checkRecovered(t *testing.T, rec *wal.CrashFS, policy SyncPolicy, floor, attempted int, label string) {
	t.Helper()
	states := scriptStates(crashScript())
	db, err := Open(walConfig(rec, policy))
	if err != nil {
		t.Fatalf("%s: recovery must never fail, got: %v", label, err)
	}
	defer db.Close()
	got := visibleState(t, db)
	// Adjacent steps can share a state (a checkpoint changes no rows), so
	// credit the highest matching prefix.
	match := -1
	for i := attempted; i >= 0; i-- {
		if stateEqual(got, states[i]) {
			match = i
			break
		}
	}
	if match < 0 {
		t.Fatalf("%s: recovered state %v matches no step prefix (attempted %d)", label, got, attempted)
	}
	if match < floor {
		t.Fatalf("%s: recovered state %v is step prefix %d, below the durability floor %d — an acknowledged commit was lost",
			label, got, match, floor)
	}
	// Replay must leave a writable, consistent database behind.
	tbl, err := db.Table("t")
	if err == nil {
		if err := tbl.Insert([]Value{Int(99), String("post")}); err != nil {
			t.Fatalf("%s: recovered database rejects writes: %v", label, err)
		}
	}
}

// durabilityFloor computes the lowest legal recovered prefix: under
// SyncAlways every acknowledged step is fsynced before its ack; under
// the weaker policies only steps at or before an acknowledged barrier
// (checkpoint) are guaranteed.
func durabilityFloor(policy SyncPolicy, acked int) int {
	if policy == SyncAlways {
		return acked
	}
	floor := 0
	for i, s := range crashScript() {
		if s.barrier && i+1 <= acked {
			floor = i + 1
		}
	}
	return floor
}

// TestCrashPointSweep is the durability proof: for every sync policy it
// crashes the engine at EVERY mutating filesystem operation of a
// workload covering DDL, transactions, deletes across a merge, a
// checkpoint and updates; each crash state is recovered under all three
// disk-survival models and must land exactly on a committed prefix —
// with zero acknowledged loss under SyncAlways.
func TestCrashPointSweep(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncGroup, SyncOff} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			t.Parallel()
			// Probe run with injection disabled counts the op space.
			probe := wal.NewMemFS()
			if acked, attempted := runScript(t, probe, policy); acked != attempted {
				t.Fatalf("probe run crashed: %d/%d steps", acked, attempted)
			}
			total := probe.Ops()
			if total < 20 {
				t.Fatalf("probe run used only %d mutating ops; sweep would be vacuous", total)
			}
			for crashAt := 1; crashAt <= total; crashAt++ {
				fs := wal.NewCrashFS(crashAt)
				acked, attempted := runScript(t, fs, policy)
				if !fs.Crashed() {
					t.Fatalf("crashAt=%d: workload finished without crashing", crashAt)
				}
				floor := durabilityFloor(policy, acked)
				for _, mode := range wal.RecoverModes() {
					label := fmt.Sprintf("crashAt=%d acked=%d %s", crashAt, acked, mode)
					checkRecovered(t, fs.Recover(mode, 0), policy, floor, attempted, label)
				}
			}
		})
	}
}

// TestRecrashDuringRecovery injects a second crash into recovery itself
// (which truncates torn tails and opens a fresh segment) and then
// recovers cleanly: replay must be idempotent — the doubly-recovered
// state obeys the same prefix-consistency and zero-loss bounds.
func TestRecrashDuringRecovery(t *testing.T) {
	probe := wal.NewMemFS()
	runScript(t, probe, SyncAlways)
	total := probe.Ops()
	for _, crashAt := range []int{total / 4, total / 2, 3 * total / 4, total - 1} {
		if crashAt < 1 {
			continue
		}
		fs := wal.NewCrashFS(crashAt)
		acked, attempted := runScript(t, fs, SyncAlways)
		for _, mode := range wal.RecoverModes() {
			for again := 1; again <= 8; again++ {
				rec := fs.Recover(mode, again)
				db, err := Open(walConfig(rec, SyncAlways))
				if err == nil {
					// Recovery finished before the second crash point.
					db.Close()
				} else if !rec.Crashed() {
					t.Fatalf("crashAt=%d %s again=%d: open failed without crash: %v", crashAt, mode, again, err)
				}
				label := fmt.Sprintf("crashAt=%d %s recrash=%d", crashAt, mode, again)
				// A crash mid-recovery only drops what the first recovery
				// wrote, never what the workload synced.
				checkRecovered(t, rec.Recover(wal.RecoverDropUnsynced, 0), SyncAlways, acked, attempted, label)
			}
		}
	}
}

// TestWALRecoveryRoundTrip is the straight-line integration check: a
// cleanly closed database reopens from its WAL directory with rows,
// schema, layout and both index kinds intact — twice.
func TestWALRecoveryRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 100)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), String(fmt.Sprintf("r%d", i%10))}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCompositeIndex("id", "tag"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tbl.Delete(tx, findRowID(t, tbl, 7, "r7")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		db2, err := Open(walConfig(fs, SyncAlways))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tbl2, err := db2.Table("t")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tbl2.Rows() != 99 {
			t.Fatalf("round %d: rows = %d, want 99", round, tbl2.Rows())
		}
		layout := tbl2.Layout()
		if !layout[0] || layout[1] {
			t.Fatalf("round %d: layout = %v, want [true false]", round, layout)
		}
		if tbl2.Inner().Index(0) == nil {
			t.Fatalf("round %d: single-column index not replayed", round)
		}
		if len(tbl2.Inner().CompositeIndexes()) != 1 {
			t.Fatalf("round %d: composite index not replayed", round)
		}
		ids, err := tbl2.LookupComposite([]string{"id", "tag"}, []Value{Int(42), String("r2")})
		if err != nil || len(ids) != 1 {
			t.Fatalf("round %d: composite lookup = %v, %v", round, ids, err)
		}
		stats := db2.Stats()
		if stats.Counters["wal.replayed_records"] == 0 {
			t.Fatalf("round %d: wal.replayed_records = 0 after replaying a populated log", round)
		}
		if stats.Counters["wal.recovery_ns"] == 0 {
			t.Fatalf("round %d: wal.recovery_ns not reported", round)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestZonesSurviveCheckpoint checks that the zones a full scan skips are
// rebuilt when recovery adopts a checkpointed main: after a checkpoint
// and a reopen, the same query returns the same rows and scans the same
// number of rows, fewer than the main holds.
func TestZonesSurviveCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	const rows = 20000
	scan := func(db *DB) ([]RowID, int64) {
		t.Helper()
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		p, err := tbl.Between("id", Int(9000), Int(9999))
		if err != nil {
			t.Fatal(err)
		}
		before := db.Stats().Counters["exec.rows.scanned"]
		res, err := tbl.Select(nil, []Predicate{p})
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs, db.Stats().Counters["exec.rows.scanned"] - before
	}
	db, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]Value, rows)
	for i := range data {
		data[i] = []Value{Int(int64(i)), String("x")}
	}
	if err := tbl.BulkLoad(data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}
	ids, scanned := scan(db)
	if len(ids) != 1000 || scanned <= 0 || scanned >= rows {
		t.Fatalf("before the checkpoint: %d rows, %d scanned of %d", len(ids), scanned, rows)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ids2, scanned2 := scan(db2)
	if !slices.Equal(ids2, ids) || scanned2 != scanned {
		t.Fatalf("after reopen: %d rows, %d scanned; before: %d rows, %d scanned", len(ids2), scanned2, len(ids), scanned)
	}
}

// TestCheckpointTruncatesWALDirectory verifies log reclamation: after a
// checkpoint only the fresh segment and the table snapshots remain, and
// recovery from that trimmed directory still yields the full state.
func TestCheckpointTruncatesWALDirectory(t *testing.T) {
	fs := wal.NewMemFS()
	db, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Insert([]Value{Int(int64(i)), String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	segs, snaps := 0, 0
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".log"):
			segs++
		case strings.HasSuffix(n, wal.SnapSuffix):
			snaps++
		default:
			t.Errorf("unexpected file %q in WAL dir", n)
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after checkpoint: %d segments, %d snapshots; want 1 and 1 (%v)", segs, snaps, names)
	}
	// Post-checkpoint writes land in the fresh segment.
	if err := tbl.Insert([]Value{Int(1000), String("y")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Rows() != 51 {
		t.Fatalf("recovered rows = %d, want 51", tbl2.Rows())
	}
}

// TestScheduledMergeCheckpoints verifies the tentpole's scheduler hook:
// once the background merge fires, the WAL is checkpointed without any
// manual call, so the log stays short under steady writes.
func TestScheduledMergeCheckpoints(t *testing.T) {
	fs := wal.NewMemFS()
	cfg := walConfig(fs, SyncAlways)
	cfg.MergeDeltaRows = 10
	cfg.mergeInterval = time.Millisecond
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tbl.Insert([]Value{Int(int64(i)), String("m")}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if db.Stats().Counters["wal.checkpoints"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never checkpointed after merging")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDurableDeleteRacesMergeSwap deletes rows by id while merges keep
// renumbering ids. Which row an id names is the caller's risk (ids are
// stable between merges only); what the engine owes is that the redo
// record describes the row that actually got the delete intent. It once
// read the tuple and marked the row under two lock holds, and a swap
// landing between them logged one row's content while deleting another,
// so recovery deleted the wrong row or found none to delete. Every row
// here is unique, so the recovered multiset must equal the pre-close one.
func TestDurableDeleteRacesMergeSwap(t *testing.T) {
	const (
		initial = 400
		rounds  = 6000
	)
	fs := wal.NewMemFS()
	db, err := Open(walConfig(fs, SyncOff))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, initial)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), String("seed")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// An SSCG column makes reading the tuple a page access.
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	merged := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				merged <- nil
				return
			default:
			}
			if err := tbl.Merge(); err != nil {
				merged <- err
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	deleted := 0
	for r := 0; r < rounds; r++ {
		// Deleting an id shifts every later row at the next swap.
		tx := db.Begin()
		if err := tbl.Delete(tx, RowID(rng.Intn(initial))); err != nil {
			// Already deleted and not merged away yet.
			if aerr := db.Abort(tx); aerr != nil {
				t.Fatal(aerr)
			}
			continue
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		deleted++
		// A fresh row per deleted one keeps the table at its size, so the
		// merges stay short and frequent, and gives each a delta to fold.
		if err := tbl.Insert([]Value{Int(int64(initial + r)), String("fresh")}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-merged; err != nil {
		t.Fatalf("merge: %v", err)
	}
	t.Logf("%d of %d deletes landed", deleted, rounds)
	want := visibleState(t, db)
	if tbl.Rows() != initial {
		t.Fatalf("%d rows before close, want %d", tbl.Rows(), initial)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(walConfig(fs, SyncOff))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if got := visibleState(t, db2); !stateEqual(got, want) {
		t.Fatalf("recovered state diverges after %d deletes by id under merges: %d rows, want %d", deleted, len(got.rows), len(want.rows))
	}
}

// TestRestoreTableIntoDurableDB verifies that restoring an external
// snapshot into a WAL-backed database survives a restart: RestoreTable
// checkpoints immediately, since the restored rows are not in the log.
func TestRestoreTableIntoDurableDB(t *testing.T) {
	src, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := src.CreateTable("ext", walFields)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 30)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), String("s")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ext.snap"
	if err := tbl.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	src.Close()

	fs := wal.NewMemFS()
	db, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RestoreTable(path); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Table("ext")
	if err != nil {
		t.Fatalf("restored table lost across restart: %v", err)
	}
	if got.Rows() != 30 {
		t.Fatalf("restored table has %d rows after restart, want 30", got.Rows())
	}
}

// createHookFS runs onCreate before each file creation it passes on.
type createHookFS struct {
	wal.FS
	onCreate func(name string)
}

func (h *createHookFS) Create(name string) (wal.File, error) {
	if h.onCreate != nil {
		h.onCreate(name)
	}
	return h.FS.Create(name)
}

// TestWALRecoveryRestoreTableWindow crashes a RestoreTable at the
// creation of the restored table's snapshot file, where a writer tries
// to insert into the table. A restored table must be durable before it
// is visible: the writer cannot find the table yet, or its acknowledged
// insert survives, and in every survival mode the database reopens —
// never with a logged commit for a table no snapshot or create-table
// record holds.
func TestWALRecoveryRestoreTableWindow(t *testing.T) {
	src, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := src.CreateTable("ext", walFields)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad([][]Value{{Int(1), String("s")}, {Int(2), String("s")}}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ext.snap"
	if err := tbl.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	src.Close()

	// restore runs RestoreTable on fs; at the snapshot's creation the
	// writer inserts if the table is visible, and crashAt is the number
	// of that creation among fs's mutating operations.
	restore := func(fs *wal.CrashFS) (restoreErr error, acked bool, crashAt int) {
		hfs := &createHookFS{FS: fs}
		db, err := Open(walConfig(hfs, SyncAlways))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		hfs.onCreate = func(name string) {
			if name != "wal/ext"+wal.SnapSuffix+".tmp" {
				return
			}
			// A held db.mu means the table is being registered: a writer
			// would wait for it, so it cannot find the table now.
			if db.mu.TryLock() {
				ext := db.tables["ext"]
				db.mu.Unlock()
				if ext != nil {
					acked = ext.Insert([]Value{Int(3), String("w")}) == nil
				}
			}
			crashAt = fs.Ops() + 1
		}
		_, restoreErr = db.RestoreTable(path)
		return restoreErr, acked, crashAt
	}
	_, _, crashAt := restore(wal.NewMemFS())
	if crashAt == 0 {
		t.Fatal("RestoreTable never created the table's snapshot in the log directory")
	}
	fs := wal.NewCrashFS(crashAt)
	restoreErr, acked, _ := restore(fs)
	if !fs.Crashed() || restoreErr == nil {
		t.Fatalf("RestoreTable survived a crash at its snapshot's creation: %v", restoreErr)
	}
	for _, mode := range wal.RecoverModes() {
		db, err := Open(walConfig(fs.Recover(mode, 0), SyncAlways))
		if err != nil {
			t.Fatalf("%s: reopen after a crashed RestoreTable (insert acked: %v): %v", mode, acked, err)
		}
		if got, err := db.Table("ext"); err == nil {
			t.Errorf("%s: a restore that failed left table ext with %d rows", mode, got.Rows())
		}
		db.Close()
	}
}

// TestCommitRollsBackWhenLogDies pins the no-false-ack property from the
// engine's public surface: once the log cannot be written, commits fail
// and their rows never become visible.
func TestCommitRollsBackWhenLogDies(t *testing.T) {
	probe := wal.NewMemFS()
	db, err := Open(walConfig(probe, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Int(1), String("a")}); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	db.Close()

	// Same workload, but the very next mutating op after the first
	// insert's ack kills the disk.
	fs := wal.NewCrashFS(ops + 1)
	db2, err := Open(walConfig(fs, SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", walFields)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Insert([]Value{Int(1), String("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Insert([]Value{Int(2), String("b")}); !errors.Is(err, wal.ErrCrashed) {
		t.Fatalf("commit on a dead log returned %v, want ErrCrashed", err)
	}
	if n := tbl2.Rows(); n != 1 {
		t.Fatalf("failed commit left %d rows visible, want 1", n)
	}
}

// BenchmarkRecovery measures restart cost against the MRC share of the
// checkpointed layout — the paper's reduced-recovery-time argument:
// fewer DRAM-resident columns mean less data must be decoded back into
// memory before the engine serves queries. Wall time covers snapshot
// load plus replay of a 200-commit log tail; the modeled clock
// (device+DRAM) is reported alongside.
func BenchmarkRecovery(b *testing.B) {
	const cols, rows, tail = 8, 2000, 200
	fields := make([]Field, cols)
	for c := range fields {
		fields[c] = Field{Name: fmt.Sprintf("c%d", c), Type: Int64Type}
	}
	for _, mrc := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("mrc=%d-of-%d", mrc, cols), func(b *testing.B) {
			fs := wal.NewMemFS()
			db, err := Open(walConfig(fs, SyncOff))
			if err != nil {
				b.Fatal(err)
			}
			tbl, err := db.CreateTable("t", fields)
			if err != nil {
				b.Fatal(err)
			}
			data := make([][]Value, rows)
			for i := range data {
				r := make([]Value, cols)
				for c := range r {
					r[c] = Int(int64(i*cols + c))
				}
				data[i] = r
			}
			if err := tbl.BulkLoad(data); err != nil {
				b.Fatal(err)
			}
			layout := make([]bool, cols)
			for c := 0; c < mrc; c++ {
				layout[c] = true
			}
			if err := tbl.ApplyLayout(Layout{InDRAM: layout}); err != nil {
				b.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tail; i++ {
				r := make([]Value, cols)
				for c := range r {
					r[c] = Int(int64(i))
				}
				if err := tbl.Insert(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var modeled time.Duration
			for i := 0; i < b.N; i++ {
				// Recover a fresh deep copy so each iteration replays the
				// same on-disk image.
				img := fs.Recover(wal.RecoverKeepUnsynced, 0)
				db2, err := Open(walConfig(img, SyncOff))
				if err != nil {
					b.Fatal(err)
				}
				modeled += db2.Clock().Elapsed()
				b.StopTimer()
				db2.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(modeled.Nanoseconds())/float64(b.N), "modeled-ns/op")
		})
	}
}
