// Package tierdb is a tiered main memory-optimized HTAP storage engine
// with workload-driven, Pareto-optimal data placement — a from-scratch
// Go reproduction of Boissier, Schlosser and Uflacker, "Hybrid Data
// Layouts for Tiered HTAP Databases with Pareto-Optimal Data
// Placements" (ICDE 2018).
//
// Each table consists of a DRAM-resident, write-optimized delta
// partition and a read-optimized main partition whose attributes are
// either Memory-Resident Columns (MRCs, dictionary-encoded, bit-packed,
// DRAM) or grouped row-oriented and uncompressed into a
// Secondary-Storage Column Group (SSCG) on a modeled storage device.
// Which attributes stay in DRAM is decided by the paper's column
// selection model: an integer linear program over the observed workload
// with selection interaction, its Pareto-efficient penalty relaxation,
// and the solver-free explicit solution.
//
// Typical use:
//
//	db, _ := tierdb.Open(tierdb.Config{Device: "3D XPoint", CacheFrames: 1024})
//	tbl, _ := db.CreateTable("orders", fields)
//	tbl.BulkLoad(rows)
//	tbl.Select(...)                               // queries feed the plan cache
//	layout, _ := tbl.RecommendLayout(tierdb.PlacementOptions{RelativeBudget: 0.2})
//	tbl.ApplyLayout(layout)                       // evict cold columns
package tierdb

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/device"
	"tierdb/internal/exec"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/server"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/trace"
	"tierdb/internal/value"
	"tierdb/internal/wal"
)

// Re-exported building blocks of the storage layer.
type (
	// Field declares one table attribute.
	Field = schema.Field
	// Value is a dynamically typed cell value.
	Value = value.Value
	// RowID addresses a visible row (stable between merges).
	RowID = table.RowID
	// Tx is a transaction handle.
	Tx = mvcc.Tx
	// DeviceProfile describes a secondary-storage device model.
	DeviceProfile = device.Profile
	// StatsSnapshot is a point-in-time copy of every engine metric; see
	// DB.Stats.
	StatsSnapshot = metrics.Snapshot
)

// Value constructors.
var (
	// Int builds an Int64 value.
	Int = value.NewInt
	// Float builds a Float64 value.
	Float = value.NewFloat
	// String builds a String value.
	String = value.NewString
)

// Column type constants.
const (
	Int64Type   = value.Int64
	Float64Type = value.Float64
	StringType  = value.String
)

// Config configures a database instance.
type Config struct {
	// Device names the secondary-storage model backing SSCGs: "CSSD",
	// "ESSD", "HDD" or "3D XPoint". Empty selects 3D XPoint.
	Device string
	// CacheFrames sizes the AMM page cache in 4 KB frames; 0 disables
	// caching.
	CacheFrames int
	// Parallelism is the number of workers main-partition scans, probes
	// and materialization are spread over; values <= 1 mean one worker,
	// which runs inline on the querying goroutine. Every level runs the
	// same pipeline and returns identical results. Open rejects values
	// above MaxParallelism.
	Parallelism int
	// PageFile, when set, backs pages with a real file at this path
	// instead of memory (the timing model still applies).
	PageFile string
	// MergeDeltaRows triggers a background online merge of a table once
	// its active delta holds at least this many rows; the scheduler
	// checks every DefaultMergeInterval. 0 disables the row threshold.
	// Manual Table.MergeAsync works regardless.
	MergeDeltaRows int
	// MergeDeltaBytes triggers a background online merge once a table's
	// delta footprint reaches this many bytes; 0 disables the byte
	// threshold.
	MergeDeltaBytes int64
	// ObsAddr, when set, serves the observability HTTP endpoints
	// (/metrics, /stats.json, /traces, /workload, /layout/advisor,
	// /debug/pprof/) on this address for the lifetime of the instance.
	// Use ObsAddr ":0" with ObsURL to grab a random port. Endpoints can
	// also be served on a caller-owned listener via ServeObservability.
	ObsAddr string
	// SlowQueryThreshold routes every query whose wall time reaches it
	// into the slow-query trace ring (/traces?slow=1) in addition to the
	// recent ring; 0 disables the slow log.
	SlowQueryThreshold time.Duration
	// WALDir, when set, makes the instance durable: every commit is
	// written to a group-committed, CRC-framed write-ahead log in this
	// directory before it is acknowledged, checkpoints truncate the log,
	// and Open recovers state (checkpoint snapshots plus log replay) from
	// whatever a crash left behind. Empty keeps the engine purely
	// in-memory.
	WALDir string
	// SyncPolicy selects when the log is fsynced relative to commit
	// acknowledgement: SyncAlways (default, zero loss), SyncGroup
	// (background interval, bounded loss window) or SyncOff (OS-paced).
	// Ignored without WALDir.
	SyncPolicy SyncPolicy
	// ListenAddr, when set, serves the tierdb wire protocol (the
	// tierdbd network service: inserts, bulk loads, selects,
	// checkpoints, stats, layout advice) on this TCP address for the
	// lifetime of the instance. Use ":0" with ServerAddr to grab a
	// random port; Close drains sessions before the WAL and merge
	// scheduler wind down. Endpoints can also be served on a
	// caller-owned listener via Serve.
	ListenAddr string
	// MaxSessions caps concurrent network sessions; further connects
	// are shed with a typed overloaded error instead of queuing. 0
	// selects server.DefaultMaxSessions. Ignored without ListenAddr.
	MaxSessions int
	// MaxInflight caps network requests executing in the engine at
	// once; excess requests are answered with ErrOverloaded
	// immediately. 0 selects server.DefaultMaxInflight. Ignored
	// without ListenAddr.
	MaxInflight int
	// DrainTimeout bounds how long Close waits for inflight network
	// requests before force-closing their sessions; 0 selects
	// server.DefaultDrainTimeout. Ignored without ListenAddr.
	DrainTimeout time.Duration
	// AdaptiveAlpha, when > 0, makes the adaptive scheduler (see
	// DB.SetAdaptive) solve the penalty form
	// F(x) + alpha*M(x) (alpha = DRAM price per byte-second) instead of
	// re-solving within each table's current modeled footprint — the
	// placement breathes with the workload.
	AdaptiveAlpha float64
	// AdaptiveBeta is the reallocation cost per moved byte (paper
	// formulation (6)-(7)); higher values make placements stickier. 0
	// re-solves from scratch each cycle.
	AdaptiveBeta float64
	// LogLevel is the minimum level of the engine's structured log on
	// stderr (listener failures, scheduler errors, adaptive placement
	// decisions and, with RequestLog, one event per network request):
	// "debug", "info", "warn" or "error" (empty = info).
	LogLevel string
	// LogFormat selects the log's encoding: "text" (default) or "json".
	LogFormat string
	// RequestLog, when true, emits one structured wide event per
	// network request (trace ID, opcode, table, rows, queue wait,
	// duration, status) through the logger at info level.
	RequestLog bool
	// TraceSampleRate is the fraction of locally rooted requests traced
	// end to end into the span ring behind /trace/{id}, in [0,1]. 0
	// (the default) records nothing locally; requests arriving with a
	// wire trace header are always recorded — the sampling decision was
	// made by the client. Unsampled requests cost nothing.
	TraceSampleRate float64

	// walFS overrides the log's filesystem; tests inject the
	// crash-injection FS here. Nil selects the real OS filesystem.
	walFS wal.FS
	// groupInterval overrides the SyncGroup background fsync cadence;
	// crash tests set an hour so no background sync makes a crash state
	// nondeterministic. 0 selects wal.DefaultGroupInterval.
	groupInterval time.Duration
	// mergeInterval and adaptiveInterval override the scheduler's
	// threshold sweep and adaptive tick cadences; tests set milliseconds.
	// 0 selects DefaultMergeInterval and DefaultAdaptiveInterval.
	mergeInterval, adaptiveInterval time.Duration
}

// MaxParallelism bounds Config.Parallelism: every query scratch holds
// one worker slot per unit and a query's regions of two or more units
// run on up to Parallelism-1 helper goroutines at once, so an unbounded
// value from a command line would cost memory and goroutines per query.
const MaxParallelism = 256

// DefaultTraceRingSize is how many recent (and slow) query traces the
// observability rings retain.
const DefaultTraceRingSize = 128

// DB is a database instance: a shared transaction manager, a modeled
// secondary-storage device with a virtual clock, and a set of tables.
type DB struct {
	mu       sync.Mutex
	mgr      *mvcc.Manager
	clock    *storage.Clock
	store    storage.Store
	cache    *amm.Cache
	profile  device.Profile
	parallel int
	registry *metrics.Registry
	tables   map[string]*Table
	sched    *scheduler
	wal      *wal.Log
	ckptMu   sync.Mutex

	recent     *metrics.TraceRing
	slow       *metrics.TraceRing
	slowThresh time.Duration

	obsMu   sync.Mutex
	obsSrvs []*http.Server
	obsAddr string
	srv     *server.Server
	srvAddr string

	log    *slog.Logger
	tracer *trace.Tracer
	start  time.Time
	// ready flips on once Open finished (recovery included) and off as
	// Close begins; /readyz reports it.
	ready atomic.Bool
}

// Open creates a database instance.
func Open(cfg Config) (*DB, error) {
	if cfg.Parallelism > MaxParallelism {
		return nil, fmt.Errorf("tierdb: parallelism %d exceeds the bound of %d (MaxParallelism)", cfg.Parallelism, MaxParallelism)
	}
	if cfg.Device == "" {
		cfg.Device = "3D XPoint"
	}
	profile, err := device.ByName(cfg.Device)
	if err != nil {
		return nil, err
	}
	var base storage.Store
	if cfg.PageFile != "" {
		fs, err := storage.NewFileStore(cfg.PageFile)
		if err != nil {
			return nil, err
		}
		base = fs
	} else {
		base = storage.NewMemStore()
	}
	clock := &storage.Clock{}
	timed := storage.NewTimedStore(base, profile, clock)
	registry := metrics.NewRegistry()
	timed.Observe(registry)
	var cache *amm.Cache
	if cfg.CacheFrames > 0 {
		cache, err = amm.New(cfg.CacheFrames, timed)
		if err != nil {
			return nil, err
		}
		cache.Observe(registry)
	}
	mgr := mvcc.NewManager()
	mgr.Observe(registry)
	db := &DB{
		mgr:        mgr,
		clock:      clock,
		store:      timed,
		cache:      cache,
		profile:    profile,
		parallel:   cfg.Parallelism,
		registry:   registry,
		tables:     make(map[string]*Table),
		recent:     metrics.NewTraceRing(DefaultTraceRingSize),
		slow:       metrics.NewTraceRing(DefaultTraceRingSize),
		slowThresh: cfg.SlowQueryThreshold,
		start:      time.Now(),
	}
	db.log = newLogger(cfg.LogLevel, cfg.LogFormat, os.Stderr)
	db.tracer = trace.New(trace.Options{
		SampleRate: cfg.TraceSampleRate,
	})
	if cfg.WALDir != "" {
		if err := db.openDurability(cfg); err != nil {
			db.store.Close()
			return nil, err
		}
	}
	db.sched = startScheduler(db, cfg)
	db.srv = server.New(dbEngine{db}, server.Config{
		MaxSessions:  cfg.MaxSessions,
		MaxInflight:  cfg.MaxInflight,
		DrainTimeout: cfg.DrainTimeout,
		Registry:     registry,
		Tracer:       db.tracer,
		Logger:       db.log,
		RequestLog:   cfg.RequestLog,
	})
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("tierdb: service listener: %w", err)
		}
		db.srvAddr = ln.Addr().String()
		go func() {
			// Serve returns nil on graceful drain; anything else means
			// the accept loop died and the process is running without
			// network service.
			if err := db.srv.Serve(ln); err != nil {
				db.log.Error("service listener failed", "err", err)
			}
		}()
	}
	if cfg.ObsAddr != "" {
		ln, err := net.Listen("tcp", cfg.ObsAddr)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("tierdb: observability listener: %w", err)
		}
		db.obsAddr = ln.Addr().String()
		go func() {
			if err := db.ServeObservability(ln); err != nil {
				db.log.Error("observability listener failed", "err", err)
			}
		}()
	}
	db.ready.Store(true)
	return db, nil
}

// Ready reports whether the instance finished opening (WAL recovery
// included) and is accepting work; it turns false again the moment
// Close begins. Served as /readyz on the observability endpoints.
func (db *DB) Ready() bool { return db.ready.Load() }

// Tracer returns the instance's distributed tracer. In-process clients
// pass it as the client package's Config.Tracer so their "client.send"
// spans land in the same ring as the server-side spans and /trace/{id}
// shows the whole request tree.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// Logger returns the instance's structured logger.
func (db *DB) Logger() *slog.Logger { return db.log }

// newLogger builds the default logger: slog text, or JSON when format
// is "json" (any case), at the level parseLevel reads from level,
// writing to sink. Unknown level or format strings fall back to the
// defaults rather than failing: a daemon with a mistyped log flag
// should come up loud, not crash or come up silent.
func newLogger(level, format string, sink io.Writer) *slog.Logger {
	opts := &slog.HandlerOptions{Level: parseLevel(level)}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(sink, opts))
	}
	return slog.New(slog.NewTextHandler(sink, opts))
}

// parseLevel maps a level name to its slog.Level, case-insensitively;
// unknown names (including "") map to Info.
func parseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Registry exposes the engine's metrics registry; advanced callers
// register their own instruments on it.
func (db *DB) Registry() *metrics.Registry { return db.registry }

// Stats returns a point-in-time snapshot of every engine metric:
// executor access-path counts, AMM cache effectiveness, per-device IO,
// delta and transaction activity.
func (db *DB) Stats() StatsSnapshot { return db.registry.Snapshot() }

// Clock returns the virtual clock accumulating modeled device and DRAM
// time; experiment harnesses report its Elapsed as "measured" runtime.
func (db *DB) Clock() *storage.Clock { return db.clock }

// Device returns the configured device profile.
func (db *DB) Device() DeviceProfile { return db.profile }

// Begin starts a transaction shared across the database's tables.
func (db *DB) Begin() *Tx { return db.mgr.Begin() }

// Commit commits a transaction.
func (db *DB) Commit(tx *Tx) error {
	_, err := db.mgr.Commit(tx)
	return err
}

// CommitCtx commits a transaction; a request trace span carried by ctx
// (see tierdb/internal/trace) receives the WAL commit/append/fsync
// child spans.
func (db *DB) CommitCtx(ctx context.Context, tx *Tx) error {
	_, err := db.mgr.CommitCtx(ctx, tx)
	return err
}

// Abort rolls a transaction back.
func (db *DB) Abort(tx *Tx) error { return db.mgr.Abort(tx) }

// autocommit runs op in a transaction of its own: committed if op
// succeeds, aborted if not.
func (db *DB) autocommit(ctx context.Context, op func(*Tx) error) error {
	tx := db.Begin()
	if err := op(tx); err != nil {
		if aerr := db.Abort(tx); aerr != nil {
			return fmt.Errorf("%w (abort failed: %v)", err, aerr)
		}
		return err
	}
	return db.CommitCtx(ctx, tx)
}

// tableOptions is what every table of this database is built with,
// however it arrives: created, restored, replayed or recovered.
func (db *DB) tableOptions() table.Options {
	return table.Options{
		Store:    db.store,
		Cache:    db.cache,
		Manager:  db.mgr,
		Registry: db.registry,
	}
}

// CreateTable creates an empty table; all columns start DRAM-resident.
func (db *DB) CreateTable(name string, fields []Field) (*Table, error) {
	s, err := schema.New(fields)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("tierdb: table %q already exists", name)
	}
	inner, err := table.New(name, s, db.tableOptions())
	if err != nil {
		return nil, err
	}
	t := newTableHandle(db, inner)
	db.tables[name] = t
	if db.wal != nil {
		// Registered before the append (both under db.mu), so a
		// concurrent checkpoint that truncates the segment holding this
		// record necessarily listed — and snapshotted — the table.
		if err := db.wal.AppendCreateTable(name, s.Fields()); err != nil {
			delete(db.tables, name)
			return nil, fmt.Errorf("tierdb: create table not durable: %w", err)
		}
	}
	return t, nil
}

// newExecutor builds the per-table executor bound to the database's
// virtual clock.
func newExecutor(db *DB, inner *table.Table) *exec.Executor {
	return exec.New(inner, exec.Options{
		Clock:              db.clock,
		Parallelism:        db.parallel,
		Registry:           db.registry,
		TraceRing:          db.recent,
		SlowRing:           db.slow,
		SlowQueryThreshold: db.slowThresh,
	})
}

// Table returns an existing table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("tierdb: no table %q", name)
}

// Tables returns the table names in undefined order.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	return out
}

// Close shuts the instance down in dependency order: first the network
// service layer drains (stop accepting, answer stragglers with
// ErrDraining, wait for inflight requests to finish), then the
// observability servers stop, the scheduler goroutine winds down
// (waiting for an in-flight merge or adaptive cycle), the write-ahead
// log syncs and closes, and finally the underlying page store is
// released. Draining before the scheduler and WAL is what guarantees no
// network request is mid-commit when the log closes.
func (db *DB) Close() error {
	db.ready.Store(false)
	db.srv.Shutdown()
	db.obsMu.Lock()
	srvs := db.obsSrvs
	db.obsSrvs = nil
	db.obsMu.Unlock()
	for _, srv := range srvs {
		srv.Close()
	}
	db.sched.shutdown()
	if db.wal != nil {
		if err := db.wal.Close(); err != nil {
			db.store.Close()
			return err
		}
	}
	return db.store.Close()
}
