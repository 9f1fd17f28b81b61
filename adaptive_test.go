package tierdb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/server/client"
	"tierdb/internal/workload"
)

// The drift harness: a scripted workload that changes character in
// phases (scan-heavy on two analytic columns, then point-heavy on a
// different set plus key lookups, then mixed). Each phase's plan mix is
// replayed deterministically against a live DB between AdaptOnce
// cycles, and the adapted layout is compared against an offline oracle
// solve of that phase's true workload.
//
// All drift predicates are single-column equalities on uniformly
// distributed columns, so the observed-selectivity EWMAs equal the
// static 1/distinct estimates exactly and the oracle sees the very
// same model inputs as the daemon.

// driftAlpha prices DRAM so columns filtered at least ~5 times per
// window stay resident (|S_i| = freq * (CSS-CMM) ≈ freq * 8.4e-10 per
// byte); driftBeta adds a small reallocation stickiness well below
// every phase's decision margin, so warm and cold solves agree.
const (
	driftAlpha = 4e-9
	driftBeta  = 2e-10
	driftRows  = 20_000
)

var driftFields = []Field{
	{Name: "id", Type: Int64Type},
	{Name: "a", Type: Int64Type},
	{Name: "b", Type: Int64Type},
	{Name: "c", Type: Int64Type},
	{Name: "d", Type: Int64Type},
	{Name: "e", Type: Int64Type},
	{Name: "pay", Type: Int64Type},
}

// driftDistinct[i] is the number of distinct values of column i
// (row i holds value rowIdx % distinct).
var driftDistinct = []int64{driftRows, 50, 40, 30, 20, 10, 1000}

// driftPlan is one strand of a phase: eq-filter the named column count
// times per cycle.
type driftPlan struct {
	col   int
	count int
}

type driftPhase struct {
	name  string
	plans []driftPlan
}

// driftPhases moves the hot set across the table: a/b, then c/d plus
// id point lookups, then a/d/e. Every listed frequency clears the
// driftAlpha threshold (>= ~5 per window), every unlisted column falls
// to zero benefit, so each phase has a distinct model answer.
var driftPhases = []driftPhase{
	{name: "scan-heavy", plans: []driftPlan{{1, 24}, {2, 24}}},
	{name: "point-heavy", plans: []driftPlan{{3, 24}, {4, 24}, {0, 6}}},
	{name: "mixed", plans: []driftPlan{{1, 12}, {4, 12}, {5, 18}}},
}

func driftConfig() Config {
	return Config{
		Device:        "CSSD",
		CacheFrames:   512,
		AdaptiveAlpha: driftAlpha,
		AdaptiveBeta:  driftBeta,
	}
}

// newDriftDB opens cfg with the move cap lifted (phase flips
// legitimately move most bytes) and loads the drift table. A test may
// set another guardrail on db.sched.adapt before its first cycle.
func newDriftDB(t *testing.T, cfg Config) (*DB, *Table) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.sched.adapt.maxMove = 1
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("drift", driftFields)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, driftRows)
	for i := range rows {
		n := int64(i)
		rows[i] = []Value{
			Int(n), Int(n % 50), Int(n % 40), Int(n % 30), Int(n % 20), Int(n % 10), Int(n % 1000),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// issueDriftBatch replays one cycle's worth of a phase's plan mix.
func issueDriftBatch(t *testing.T, tbl *Table, phase driftPhase, cycle int) {
	t.Helper()
	for _, p := range phase.plans {
		col := driftFields[p.col].Name
		for k := 0; k < p.count; k++ {
			v := int64(cycle*13+k*7) % driftDistinct[p.col]
			pred, err := tbl.Eq(col, Int(v))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Select(nil, []Predicate{pred}); err != nil {
				t.Fatalf("phase %s: select: %v", phase.name, err)
			}
		}
	}
}

// driftWorkload builds the phase's true model input from the current
// table statistics, with the same observed-EWMA override the daemon
// applies.
func driftWorkload(t *testing.T, tbl *Table, phase driftPhase) *core.Workload {
	t.Helper()
	plans := make([]workload.Plan, 0, len(phase.plans))
	for _, p := range phase.plans {
		plans = append(plans, workload.Plan{Columns: []int{p.col}, Count: float64(p.count)})
	}
	w, err := workload.ExtractPlans(tbl.Inner(), plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Columns {
		if sel, n := tbl.Inner().ObservedSelectivity(i); n >= int64(DefaultAdvisorMinSamples) && sel > 0 {
			w.Columns[i].Selectivity = sel
		}
	}
	return w
}

// driftObjective is what the penalty-mode daemon minimizes: scan cost
// plus DRAM rent.
func driftObjective(w *core.Workload, x []bool) float64 {
	return core.ScanCost(w, core.DefaultCostParams(), x) + driftAlpha*float64(core.MemoryUsed(w, x))
}

// TestAdaptiveDriftConvergence is the headline proof: within K=3
// cycles of each scripted phase change the daemon's applied layout is
// within eps=1% of an oracle offline Theorem-2 solve of that phase's
// true workload, and the layout never oscillates once converged.
func TestAdaptiveDriftConvergence(t *testing.T) {
	const (
		K             = 3
		cyclesPerStep = 5
		eps           = 0.01
	)
	db, tbl := newDriftDB(t, driftConfig())
	prev := tbl.Layout()
	converged := make([][]bool, 0, len(driftPhases))
	for _, phase := range driftPhases {
		layouts := [][]bool{prev}
		for cycle := 1; cycle <= cyclesPerStep; cycle++ {
			issueDriftBatch(t, tbl, phase, cycle)
			if err := db.AdaptOnce(); err != nil {
				t.Fatalf("phase %s cycle %d: AdaptOnce: %v", phase.name, cycle, err)
			}
			layouts = append(layouts, tbl.Layout())
		}
		lastChange := 0
		for i := 1; i < len(layouts); i++ {
			if !equalLayout(layouts[i], layouts[i-1]) {
				lastChange = i
			}
		}
		if lastChange > K {
			t.Fatalf("phase %s: layout still changing at cycle %d (> K=%d): %v",
				phase.name, lastChange, K, layouts)
		}
		if lastChange == 0 {
			t.Fatalf("phase %s: daemon never adapted to the drift (layout stuck at %v)", phase.name, prev)
		}
		applied := layouts[len(layouts)-1]
		w := driftWorkload(t, tbl, phase)
		oracle, err := core.ContinuousPenaltyRealloc(w, core.DefaultCostParams(), driftAlpha, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		appliedObj, oracleObj := driftObjective(w, applied), driftObjective(w, oracle.InDRAM)
		if appliedObj > oracleObj*(1+eps) {
			t.Fatalf("phase %s: converged objective %.6g exceeds oracle %.6g by more than %.0f%%\n applied %v\n oracle  %v",
				phase.name, appliedObj, oracleObj, 100*eps, applied, oracle.InDRAM)
		}
		if !equalLayout(applied, oracle.InDRAM) {
			t.Errorf("phase %s: converged layout %v != oracle %v (cost still within eps)",
				phase.name, applied, oracle.InDRAM)
		}
		converged = append(converged, applied)
		prev = applied
	}
	// The phases must have produced genuinely different placements —
	// otherwise the harness proved nothing about drift.
	for i := 0; i < len(converged); i++ {
		for j := i + 1; j < len(converged); j++ {
			if equalLayout(converged[i], converged[j]) {
				t.Errorf("phases %s and %s converged to the same layout %v",
					driftPhases[i].name, driftPhases[j].name, converged[i])
			}
		}
	}
	rep := db.AdaptiveStatus()
	if rep.Applies < uint64(len(driftPhases)) {
		t.Errorf("adaptive report: %d applies, want >= %d", rep.Applies, len(driftPhases))
	}
	if rep.Cycles != uint64(len(driftPhases)*cyclesPerStep) {
		t.Errorf("adaptive report: %d cycles, want %d", rep.Cycles, len(driftPhases)*cyclesPerStep)
	}
	snap := db.Stats()
	if got := snap.Counters["adaptive.applies"]; got != int64(rep.Applies) {
		t.Errorf("adaptive.applies counter = %d, report says %d", got, rep.Applies)
	}
	if snap.Counters["adaptive.moved_bytes"] <= 0 {
		t.Error("adaptive.moved_bytes counter not incremented")
	}
}

// TestAdaptiveMinGainGuardrail: a drift whose modeled gain stays under
// the min-gain floor must produce no apply, and the decision must say so.
func TestAdaptiveMinGainGuardrail(t *testing.T) {
	db, tbl := newDriftDB(t, driftConfig())
	db.sched.adapt.minGain = 0.999 // nothing short of free DRAM clears this
	before := tbl.Layout()
	for cycle := 1; cycle <= 3; cycle++ {
		issueDriftBatch(t, tbl, driftPhases[0], cycle)
		if err := db.AdaptOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if !equalLayout(tbl.Layout(), before) {
		t.Fatalf("sub-min-gain drift was applied: %v -> %v", before, tbl.Layout())
	}
	rep := db.AdaptiveStatus()
	if rep.Applies != 0 {
		t.Fatalf("report shows %d applies, want 0", rep.Applies)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("report has %d tables, want 1", len(rep.Tables))
	}
	d := rep.Tables[0]
	if d.Action != "skipped" || !strings.Contains(d.Reason, "below min gain") {
		t.Fatalf("decision = %s (%s), want skipped below min gain", d.Action, d.Reason)
	}
	if got := db.Stats().Counters["adaptive.skips"]; got < 3 {
		t.Errorf("adaptive.skips = %d, want >= 3", got)
	}
}

// TestAdaptiveMoveCapGuardrail: capping the per-cycle moved fraction
// low enough blocks the same drift the default config applies.
func TestAdaptiveMoveCapGuardrail(t *testing.T) {
	db, tbl := newDriftDB(t, driftConfig())
	db.sched.adapt.maxMove = 0.01 // the first re-solve wants to evict most of the table
	before := tbl.Layout()
	issueDriftBatch(t, tbl, driftPhases[0], 1)
	if err := db.AdaptOnce(); err != nil {
		t.Fatal(err)
	}
	if !equalLayout(tbl.Layout(), before) {
		t.Fatalf("over-cap move was applied: %v -> %v", before, tbl.Layout())
	}
	rep := db.AdaptiveStatus()
	if len(rep.Tables) != 1 || !strings.Contains(rep.Tables[0].Reason, "per-cycle cap") {
		t.Fatalf("decision = %+v, want per-cycle cap skip", rep.Tables)
	}
}

// TestAdaptiveEmptyWindow: a cycle with no recorded plans must not
// touch the layout (the daemon would otherwise evict everything the
// moment the workload pauses).
func TestAdaptiveEmptyWindow(t *testing.T) {
	db, tbl := newDriftDB(t, driftConfig())
	before := tbl.Layout()
	if err := db.AdaptOnce(); err != nil {
		t.Fatal(err)
	}
	if !equalLayout(tbl.Layout(), before) {
		t.Fatalf("empty window changed layout: %v -> %v", before, tbl.Layout())
	}
	rep := db.AdaptiveStatus()
	if len(rep.Tables) != 1 || !strings.Contains(rep.Tables[0].Reason, "no workload") {
		t.Fatalf("decision = %+v, want no-workload skip", rep.Tables)
	}
}

// TestAdaptiveFlipBackCooldown forces the oscillation damper: after
// the daemon undoes its own previous apply (a flip-back), further
// moves must sit out the cooldown's cycles — the flap rate is bounded
// by the cooldown, not the cycle cadence.
func TestAdaptiveFlipBackCooldown(t *testing.T) {
	const cooldown = 2
	db, tbl := newDriftDB(t, driftConfig())
	db.sched.adapt.cooldown = cooldown
	cycleWith := func(phase driftPhase, n int) {
		t.Helper()
		issueDriftBatch(t, tbl, phase, n)
		if err := db.AdaptOnce(); err != nil {
			t.Fatal(err)
		}
	}
	cycleWith(driftPhases[0], 1)
	layoutA := tbl.Layout()
	cycleWith(driftPhases[1], 2)
	layoutB := tbl.Layout()
	if equalLayout(layoutA, layoutB) {
		t.Fatal("phases produced identical layouts; flip-back cannot be exercised")
	}
	// Back to phase 0: the recommendation equals the layout we last
	// moved away from — an apply, but flagged as a flip-back.
	cycleWith(driftPhases[0], 3)
	if !equalLayout(tbl.Layout(), layoutA) {
		t.Fatalf("flip-back not applied: %v", tbl.Layout())
	}
	rep := db.AdaptiveStatus()
	if len(rep.Tables) != 1 || !strings.Contains(rep.Tables[0].Reason, "flip-back") {
		t.Fatalf("flip-back apply not flagged: %+v", rep.Tables)
	}
	// The workload flips again, but the daemon is cooling down: the
	// next cooldown cycles must hold the layout still.
	for i := 0; i < cooldown; i++ {
		cycleWith(driftPhases[1], 4+i)
		if !equalLayout(tbl.Layout(), layoutA) {
			t.Fatalf("cooldown cycle %d moved the layout: %v", i, tbl.Layout())
		}
		rep = db.AdaptiveStatus()
		if !strings.Contains(rep.Tables[0].Reason, "cooldown") {
			t.Fatalf("cooldown cycle %d decision: %+v", i, rep.Tables[0])
		}
	}
	// Cooldown expired: the still-drifted workload may move again.
	cycleWith(driftPhases[1], 9)
	if !equalLayout(tbl.Layout(), layoutB) {
		t.Fatalf("post-cooldown cycle did not re-apply: %v", tbl.Layout())
	}
}

// TestAdaptiveBudgetFormDefault: with no alpha and no explicit budget
// the daemon re-solves under the table's current DRAM footprint
// ("spend these same bytes better"). On an all-resident table that
// re-solve can only shuffle indifferent columns (evicting never-queried
// ones changes no modeled cost), and the min-gain guardrail must stop
// exactly that: zero modeled gain never moves bytes.
func TestAdaptiveBudgetFormDefault(t *testing.T) {
	cfg := driftConfig()
	cfg.AdaptiveAlpha, cfg.AdaptiveBeta = 0, 0
	db, tbl := newDriftDB(t, cfg)
	before := tbl.Layout()
	issueDriftBatch(t, tbl, driftPhases[0], 1)
	if err := db.AdaptOnce(); err != nil {
		t.Fatal(err)
	}
	if !equalLayout(tbl.Layout(), before) {
		t.Fatalf("footprint-budget re-solve moved the layout: %v", tbl.Layout())
	}
	rep := db.AdaptiveStatus()
	if len(rep.Tables) != 1 {
		t.Fatalf("report has %d tables, want 1", len(rep.Tables))
	}
	d := rep.Tables[0]
	if d.Action != "skipped" || d.Improvement != 0 || !strings.Contains(d.Reason, "below min gain") {
		t.Fatalf("decision = %+v, want zero-gain min-gain skip", d)
	}
}

// TestAdaptiveWarmColdBetaZeroEquivalence pins the daemon's
// reallocation-aware solve against the cold offline solver: with
// beta=0 the warm path (current layout as y, as the daemon passes it)
// and a from-scratch solve must agree on modeled cost to within 1e-9
// for arbitrary workloads.
func TestAdaptiveWarmColdBetaZeroEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	costs := core.DefaultCostParams()
	for iter := 0; iter < 300; iter++ {
		w := randomDriftWorkload(rng)
		budget := 1 + rng.Int63n(w.TotalSize())
		current := make([]bool, len(w.Columns))
		for i := range current {
			current[i] = rng.Intn(2) == 0
		}
		warm, err := core.Solve(w, costs, budget, core.MethodExplicit, current, 0)
		if err != nil {
			t.Fatalf("iter %d: warm solve: %v", iter, err)
		}
		cold, err := core.Solve(w, costs, budget, core.MethodExplicit, nil, 0)
		if err != nil {
			t.Fatalf("iter %d: cold solve: %v", iter, err)
		}
		if diff := math.Abs(warm.Cost - cold.Cost); diff > 1e-9 {
			t.Fatalf("iter %d: warm cost %.12g vs cold %.12g (diff %g, budget %d)\n warm %v\n cold %v",
				iter, warm.Cost, cold.Cost, diff, budget, warm.InDRAM, cold.InDRAM)
		}
	}
}

// randomDriftWorkload builds a random valid model input.
func randomDriftWorkload(rng *rand.Rand) *core.Workload {
	nCols := 1 + rng.Intn(10)
	cols := make([]core.Column, nCols)
	for i := range cols {
		cols[i] = core.Column{
			Name:        driftColName(i),
			Size:        1 + rng.Int63n(1<<20),
			Selectivity: 1e-6 + rng.Float64()*(1-1e-6),
		}
	}
	nQueries := 1 + rng.Intn(8)
	queries := make([]core.Query, 0, nQueries)
	for j := 0; j < nQueries; j++ {
		perm := rng.Perm(nCols)
		k := 1 + rng.Intn(nCols)
		queries = append(queries, core.Query{
			Columns:   perm[:k],
			Frequency: float64(1 + rng.Intn(100)),
		})
	}
	return &core.Workload{Columns: cols, Queries: queries}
}

func driftColName(i int) string { return string(rune('a' + i%26)) }

// TestAdaptivePeriodicDaemon exercises the real timer path: once
// SetAdaptive(true) turns the tick on, a short interval applies the
// placement without any AdaptOnce, and the runtime toggle flips the
// enabled flag.
func TestAdaptivePeriodicDaemon(t *testing.T) {
	cfg := driftConfig()
	cfg.adaptiveInterval = 5 * time.Millisecond
	db, tbl := newDriftDB(t, cfg)
	if db.AdaptiveEnabled() {
		t.Fatal("the periodic loop is on before SetAdaptive(true)")
	}
	db.SetAdaptive(true)
	issueDriftBatch(t, tbl, driftPhases[0], 1)
	deadline := time.Now().Add(10 * time.Second)
	for db.AdaptiveStatus().Applies == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic daemon never applied; report %+v", db.AdaptiveStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
	db.SetAdaptive(false)
	if db.AdaptiveEnabled() {
		t.Fatal("SetAdaptive(false) did not stick")
	}
	db.SetAdaptive(true)
	if !db.AdaptiveEnabled() {
		t.Fatal("SetAdaptive(true) did not stick")
	}
}

// TestAdaptiveOpcode drives the adaptive subcommands over the real
// wire protocol: enable, then disable, each reaching the daemon.
func TestAdaptiveOpcode(t *testing.T) {
	cfg := driftConfig()
	cfg.ListenAddr = "127.0.0.1:0"
	db, _ := newDriftDB(t, cfg)
	c, err := client.Dial(client.Config{Addr: db.ServerAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if db.AdaptiveEnabled() {
		t.Fatal("daemon enabled without SetAdaptive")
	}
	if err := c.SetAdaptive(true); err != nil {
		t.Fatalf("enable over the wire: %v", err)
	}
	if !db.AdaptiveEnabled() {
		t.Fatal("wire enable did not reach the daemon")
	}
	if err := c.SetAdaptive(false); err != nil {
		t.Fatalf("disable over the wire: %v", err)
	}
	if db.AdaptiveEnabled() {
		t.Fatal("wire disable did not reach the daemon")
	}
}

// TestAdaptiveAfterClose: AdaptOnce on a closed DB fails cleanly.
func TestAdaptiveAfterClose(t *testing.T) {
	db, err := Open(driftConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.AdaptOnce(); err != ErrClosed {
		t.Fatalf("AdaptOnce after Close = %v, want ErrClosed", err)
	}
}
