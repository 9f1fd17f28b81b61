package tierdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/metrics"
	"tierdb/internal/obsrv"
	"tierdb/internal/table"
)

// AdaptiveReport is the adaptive placement scheduler's status: config,
// lifetime totals and the last decision per table (also served on
// /layout/adaptive).
type AdaptiveReport = obsrv.AdaptiveReport

// AdaptiveDecision is one table's most recent adaptive decision.
type AdaptiveDecision = obsrv.AdaptiveDecision

// Adaptive placement defaults (Config.Adaptive* zero values).
const (
	// DefaultAdaptiveInterval is the daemon's cycle cadence when
	// adaptation is enabled without an explicit interval.
	DefaultAdaptiveInterval = 30 * time.Second
	// DefaultAdaptiveMinGain is the hysteresis floor: a re-solve must
	// promise at least this relative modeled-cost improvement before
	// the daemon re-tiers a table.
	DefaultAdaptiveMinGain = 0.01
	// DefaultAdaptiveMaxMove caps how much of a table may relocate in
	// one cycle, as a fraction of its total column bytes.
	DefaultAdaptiveMaxMove = 0.5
	// DefaultAdaptiveCooldown is how many cycles a table sits out after
	// a flip-back (re-applying the layout it just moved away from), so
	// drifting estimates cannot flap a layout every cycle.
	DefaultAdaptiveCooldown = 3
)

// adaptiveState is the per-table memory the guardrails need across
// cycles: the layout the last apply moved away from (to detect a
// flip-back) and the remaining cooldown.
type adaptiveState struct {
	prevLayout []bool // layout before the last adaptive apply; nil until one happened
	cooldown   int
}

// adaptiveScheduler is the adaptive placement policy, which closes the
// paper's loop: each cycle rotates every table's workload window,
// re-solves the explicit column selection model with reallocation costs
// (Theorem 2 on formulation (6)-(7), y = the current placement), and
// applies the recommendation online through the same ApplyLayout path a
// DBA would use — WAL-logged DDL, so adapted placements survive
// recovery.
//
// Cycles run on the database's scheduler goroutine, so an apply never
// overlaps a scheduled merge; while a caller's own merge holds a table
// the table layer rejects the apply, which the policy reports as a
// skip. Each durable apply is sealed with a checkpoint, which db.ckptMu
// serializes against every other checkpoint.
type adaptiveScheduler struct {
	db       *DB
	interval time.Duration
	alpha    float64 // >0 selects the penalty form F(x)+alpha*M(x)
	beta     float64 // reallocation cost per moved byte
	budget   int64   // hard budget; 0 = current modeled footprint
	minGain  float64
	maxMove  float64
	cooldown int
	enabled  atomic.Bool // the periodic tick acts only while set

	mu      sync.Mutex
	cycles  uint64
	applies uint64
	skips   uint64
	errs    uint64
	moved   int64
	last    map[string]AdaptiveDecision
	state   map[string]*adaptiveState

	cCycles *metrics.Counter
	cApply  *metrics.Counter
	cSkip   *metrics.Counter
	cErr    *metrics.Counter
	cMoved  *metrics.Counter
	hSolve  *metrics.Histogram
}

// newAdaptiveScheduler builds the policy from the Config.Adaptive*
// fields. DB.AdaptOnce and the server opcodes work regardless of
// Config.AdaptiveInterval; > 0 only turns the periodic tick on at boot.
func newAdaptiveScheduler(db *DB, cfg Config) *adaptiveScheduler {
	s := &adaptiveScheduler{
		db:       db,
		interval: cfg.AdaptiveInterval,
		alpha:    cfg.AdaptiveAlpha,
		beta:     cfg.AdaptiveBeta,
		budget:   cfg.AdaptiveBudget,
		minGain:  cfg.AdaptiveMinGain,
		maxMove:  cfg.AdaptiveMaxMove,
		cooldown: cfg.AdaptiveCooldown,
		last:     make(map[string]AdaptiveDecision),
		state:    make(map[string]*adaptiveState),
	}
	s.enabled.Store(cfg.AdaptiveInterval > 0)
	if s.interval <= 0 {
		s.interval = DefaultAdaptiveInterval
	}
	if s.minGain <= 0 {
		s.minGain = DefaultAdaptiveMinGain
	}
	if s.maxMove <= 0 || s.maxMove > 1 {
		s.maxMove = DefaultAdaptiveMaxMove
	}
	if s.cooldown <= 0 {
		s.cooldown = DefaultAdaptiveCooldown
	}
	r := db.registry
	s.cCycles = r.Counter("adaptive.cycles")
	s.cApply = r.Counter("adaptive.applies")
	s.cSkip = r.Counter("adaptive.skips")
	s.cErr = r.Counter("adaptive.errors")
	s.cMoved = r.Counter("adaptive.moved_bytes")
	s.hSolve = r.Histogram("adaptive.solve_ns", metrics.IOLatencyBuckets())
	return s
}

// cycle runs one adaptation pass over every table.
func (s *adaptiveScheduler) cycle() {
	s.mu.Lock()
	s.cycles++
	cycle := s.cycles
	s.mu.Unlock()
	s.cCycles.Inc()
	for _, t := range s.db.tableList() {
		d := s.adaptTable(t, cycle)
		s.mu.Lock()
		s.last[d.Table] = d
		switch d.Action {
		case "applied":
			s.applies++
			s.moved += d.MovedBytes
		case "skipped":
			s.skips++
			s.cSkip.Inc()
		case "error":
			s.errs++
			s.cErr.Inc()
		}
		s.mu.Unlock()
		switch d.Action {
		case "applied":
			s.db.log.Info("adaptive placement applied",
				"table", d.Table, "cycle", cycle, "moved_bytes", d.MovedBytes,
				"improvement", d.Improvement, "reason", d.Reason)
		case "error":
			s.db.log.Warn("adaptive placement error",
				"table", d.Table, "cycle", cycle, "reason", d.Reason)
		}
	}
}

// adaptTable decides and (maybe) applies one table's placement for this
// cycle. The guardrail ladder runs cheapest-first; the first rung that
// fires wins and is reported as the decision's reason.
func (s *adaptiveScheduler) adaptTable(t *Table, cycle uint64) AdaptiveDecision {
	d := AdaptiveDecision{Table: t.Name(), Cycle: cycle}
	st := s.tableState(t.Name())
	cooldownWas := st.cooldown
	if st.cooldown > 0 {
		st.cooldown--
	}
	plans := t.plans.Rotate()
	for _, p := range plans {
		d.WindowQueries += p.Count
	}
	if len(plans) == 0 {
		d.Action, d.Reason = "skipped", "no workload in window"
		return d
	}
	w, err := t.model(plans, nil)
	if err != nil {
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	t.observe(w, DefaultAdvisorMinSamples)
	costs := core.DefaultCostParams()
	current := t.inner.Layout()
	start := time.Now()
	alloc, err := s.solve(w, costs, current)
	d.SolveNs = time.Since(start).Nanoseconds()
	s.hSolve.Observe(d.SolveNs)
	if err != nil {
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	d.Current = current
	d.Recommended = alloc.InDRAM
	// The guardrail compares the objective the solver minimizes: plain
	// scan cost under a hard budget, F(x) + alpha*M(x) in penalty mode
	// (where an apply may trade scan time for DRAM rent).
	d.CurrentCost = core.ScanCost(w, costs, current) + s.alpha*float64(core.MemoryUsed(w, current))
	d.RecommendedCost = alloc.Cost + s.alpha*float64(alloc.Memory)
	if d.CurrentCost > 0 {
		d.Improvement = (d.CurrentCost - d.RecommendedCost) / d.CurrentCost
	}
	var total int64
	for i, c := range w.Columns {
		total += c.Size
		if current[i] != alloc.InDRAM[i] {
			d.MovedBytes += c.Size
		}
	}
	if d.MovedBytes == 0 {
		// Converged: the placement already is the model's answer. A
		// clean convergence also clears any pending cooldown — the
		// estimates stopped drifting.
		st.cooldown = 0
		d.Action, d.Reason = "skipped", "layout already optimal"
		return d
	}
	if cooldownWas > 0 {
		d.CooldownLeft = st.cooldown
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("flip-back cooldown (%d cycles left)", st.cooldown)
		return d
	}
	if d.Improvement < s.minGain {
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("modeled gain %.4f below min gain %.4f", d.Improvement, s.minGain)
		return d
	}
	if total > 0 && float64(d.MovedBytes) > s.maxMove*float64(total) {
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("would move %d of %d bytes, over the %.0f%% per-cycle cap",
			d.MovedBytes, total, 100*s.maxMove)
		return d
	}
	flipBack := st.prevLayout != nil && equalLayout(alloc.InDRAM, st.prevLayout)
	// The shared tail seals the WAL-logged layout DDL with a checkpoint,
	// like a scheduled merge. Scheduled merges cannot be in flight here
	// (same goroutine); a caller's own Merge or ApplyLayout can.
	err = s.db.rebuild(t, "adapt", func() error { return t.ApplyLayout(Layout{InDRAM: alloc.InDRAM}) })
	if err != nil {
		if errors.Is(err, table.ErrMergeInProgress) {
			d.Action, d.Reason = "skipped", "online merge in flight"
			return d
		}
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	s.cApply.Inc()
	s.cMoved.Add(d.MovedBytes)
	st.prevLayout = current
	d.Action, d.Reason = "applied", "re-solved placement"
	if flipBack {
		// We just undid our own previous apply: the estimates are
		// oscillating around a boundary. Sit out the next cycles so the
		// flap rate is bounded by the cooldown, not the cycle cadence.
		st.cooldown = s.cooldown
		d.CooldownLeft = st.cooldown
		d.Reason = "re-solved placement (flip-back; cooling down)"
	}
	return d
}

// solve is the daemon's re-solve: the explicit Theorem-2 path with
// reallocation costs. AdaptiveAlpha > 0 selects the penalty form
// (every column whose S_i + alpha + beta*(1-2y_i) is negative stays in
// DRAM); otherwise the budget form keeps the table within
// AdaptiveBudget bytes (its zero value: the current modeled footprint,
// "spend these same bytes better").
func (s *adaptiveScheduler) solve(w *core.Workload, costs core.CostParams, current []bool) (core.Allocation, error) {
	if s.alpha > 0 {
		return core.ContinuousPenaltyRealloc(w, costs, s.alpha, current, s.beta)
	}
	return core.ExplicitForBudget(w, costs, resolveBudget(w, s.budget, 0, current), current, s.beta)
}

func (s *adaptiveScheduler) tableState(name string) *adaptiveState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[name]
	if !ok {
		st = &adaptiveState{}
		s.state[name] = st
	}
	return st
}

func equalLayout(a, b []bool) bool { return slices.Equal(a, b) }

// report builds the /layout/adaptive answer.
func (s *adaptiveScheduler) report() *AdaptiveReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &AdaptiveReport{
		Enabled:         s.enabled.Load(),
		IntervalNs:      s.interval.Nanoseconds(),
		Alpha:           s.alpha,
		Beta:            s.beta,
		BudgetBytes:     s.budget,
		MinGain:         s.minGain,
		MaxMoveFraction: s.maxMove,
		CooldownCycles:  s.cooldown,
		Cycles:          s.cycles,
		Applies:         s.applies,
		Skips:           s.skips,
		Errors:          s.errs,
		MovedBytes:      s.moved,
	}
	for _, d := range s.last {
		rep.Tables = append(rep.Tables, d)
	}
	sort.Slice(rep.Tables, func(i, j int) bool { return rep.Tables[i].Table < rep.Tables[j].Table })
	return rep
}

// AdaptOnce runs one synchronous adaptation cycle on the scheduler
// goroutine — every table's history window rotates, the model re-solves
// and guardrails gate the applies, exactly as a timer tick would, but
// deterministically under test control. It works even while periodic
// adaptation is disabled. Returns ErrClosed after DB.Close.
func (db *DB) AdaptOnce() error {
	reply := make(chan error, 1)
	select {
	case <-db.sched.stop:
		return ErrClosed
	case db.sched.adapts <- reply:
		return <-reply
	}
}

// SetAdaptive enables or disables the periodic adaptive placement
// loop at runtime (also reachable over the wire protocol).
func (db *DB) SetAdaptive(enabled bool) { db.sched.adapt.enabled.Store(enabled) }

// AdaptiveEnabled reports whether the periodic loop is on.
func (db *DB) AdaptiveEnabled() bool { return db.sched.adapt.enabled.Load() }

// AdaptiveStatus reports the daemon's configuration, lifetime totals
// and last per-table decisions.
func (db *DB) AdaptiveStatus() *AdaptiveReport { return db.sched.adapt.report() }
