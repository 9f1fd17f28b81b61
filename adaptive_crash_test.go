package tierdb

import (
	"fmt"
	"testing"

	"tierdb/internal/wal"
)

// adaptiveCrashConfig is the drift config with a WAL attached, so an
// adaptive apply is DDL-logged and checkpointed like any other layout
// change.
func adaptiveCrashConfig(fs wal.FS) Config {
	cfg := walConfig(fs, SyncAlways)
	cfg.Device = "CSSD"
	cfg.CacheFrames = 256
	cfg.AdaptiveAlpha = driftAlpha
	cfg.AdaptiveBeta = driftBeta
	return cfg
}

const adaptiveCrashRows = 2_000

// runAdaptiveCrashScript loads the drift table, replays one scan-heavy
// window and runs one adaptive cycle (layout apply + WAL append +
// checkpoint). It reports the layouts before and after the apply, the
// op count after the bulk load (the sweep starts past it), and whether
// the script ran to completion.
func runAdaptiveCrashScript(t *testing.T, fs *wal.CrashFS) (old, new []bool, preOps int, done bool) {
	t.Helper()
	db, err := Open(adaptiveCrashConfig(fs))
	if err != nil {
		if !fs.Crashed() {
			t.Fatalf("open failed without a crash: %v", err)
		}
		return nil, nil, 0, false
	}
	defer db.Close()           // post-crash close errors are expected; ignore
	db.sched.adapt.maxMove = 1 // the drift's first apply moves most bytes
	tbl, err := db.CreateTable("drift", driftFields)
	if err != nil {
		if !fs.Crashed() {
			t.Fatal(err)
		}
		return nil, nil, 0, false
	}
	rows := make([][]Value, adaptiveCrashRows)
	for i := range rows {
		n := int64(i)
		rows[i] = []Value{
			Int(n), Int(n % 50), Int(n % 40), Int(n % 30), Int(n % 20), Int(n % 10), Int(n % 1000),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		if !fs.Crashed() {
			t.Fatal(err)
		}
		return nil, nil, 0, false
	}
	preOps = fs.Ops()
	old = tbl.Layout()
	issueDriftBatch(t, tbl, driftPhases[0], 1)
	if err := db.AdaptOnce(); err != nil {
		if !fs.Crashed() {
			t.Fatal(err)
		}
		return old, nil, preOps, false
	}
	new = tbl.Layout()
	// The apply itself may have hit the injected crash (reported as an
	// "error" decision, not an AdaptOnce error); only a clean run with a
	// changed layout counts as complete.
	done = !fs.Crashed() && !equalLayout(old, new)
	return old, new, preOps, done
}

// TestAdaptiveApplyCrashRecovery kills the filesystem at every mutating
// op from the first adaptive cycle onward (layout apply, WAL layout
// record, the checkpoint the daemon takes after applying). Every crash
// state must recover to EXACTLY the old or the new placement — never a
// torn mixture — with every loaded row intact, and the reopened
// database must re-converge to the drift's layout within one window.
func TestAdaptiveApplyCrashRecovery(t *testing.T) {
	probe := wal.NewMemFS()
	oldLayout, newLayout, preOps, done := runAdaptiveCrashScript(t, probe)
	if !done {
		t.Fatalf("probe run did not complete: old=%v new=%v", oldLayout, newLayout)
	}
	total := probe.Ops()
	if total <= preOps {
		t.Fatalf("adaptive cycle produced no mutating ops (%d..%d); sweep would be vacuous", preOps, total)
	}
	for crashAt := preOps + 1; crashAt <= total; crashAt++ {
		fs := wal.NewCrashFS(crashAt)
		runAdaptiveCrashScript(t, fs)
		if !fs.Crashed() {
			t.Fatalf("crashAt=%d: script finished without crashing", crashAt)
		}
		for _, mode := range wal.RecoverModes() {
			label := fmt.Sprintf("crashAt=%d %s", crashAt, mode)
			checkAdaptiveRecovered(t, fs.Recover(mode, 0), oldLayout, newLayout, label)
		}
	}
}

func checkAdaptiveRecovered(t *testing.T, rec *wal.CrashFS, oldLayout, newLayout []bool, label string) {
	t.Helper()
	db, err := Open(adaptiveCrashConfig(rec))
	if err != nil {
		t.Fatalf("%s: recovery must never fail, got: %v", label, err)
	}
	defer db.Close()
	db.sched.adapt.maxMove = 1
	tbl, err := db.Table("drift")
	if err != nil {
		t.Fatalf("%s: table lost: %v", label, err)
	}
	// SyncAlways: the acknowledged bulk load is durable in full.
	if got := tbl.Rows(); got != adaptiveCrashRows {
		t.Fatalf("%s: Rows = %d, want %d", label, got, adaptiveCrashRows)
	}
	got := tbl.Layout()
	if !equalLayout(got, oldLayout) && !equalLayout(got, newLayout) {
		t.Fatalf("%s: recovered layout %v is neither old %v nor new %v (torn apply)",
			label, got, oldLayout, newLayout)
	}
	// Re-converge: one fresh window of the same drift must land the
	// recovered database on the drift's placement.
	issueDriftBatch(t, tbl, driftPhases[0], 2)
	if err := db.AdaptOnce(); err != nil {
		t.Fatalf("%s: AdaptOnce after recovery: %v", label, err)
	}
	if got := tbl.Layout(); !equalLayout(got, newLayout) {
		t.Fatalf("%s: did not re-converge: layout %v, want %v", label, got, newLayout)
	}
}
