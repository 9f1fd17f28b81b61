// Command loadgen is a closed-loop load generator for the tierdb
// network service. Each worker runs its own request loop against the
// server — insert-heavy or read-heavy per -read-frac — and the run
// ends with an accounting check: the server-visible row count must
// equal preloaded rows plus exactly the inserts the server
// acknowledged. Overload sheds (ErrOverloaded) are expected under
// pressure, count as rejects, and back off; any other error fails the
// run.
//
// Two modes:
//
//	loadgen -addr host:port        # drive an external tierdbd
//	loadgen -selftest              # boot a full server in-process
//
// -selftest is the CI soak: one process hosts both halves over real
// loopback TCP (so `go run -race ./cmd/loadgen -selftest` race-checks
// client, server and engine together), runs the workload with
// background merges enabled, drains, then reopens the WAL directory
// and proves every acknowledged write survived.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tierdb"
	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/trace"
)

const tableName = "load"

var fields = []tierdb.Field{
	{Name: "id", Type: tierdb.Int64Type},
	{Name: "amount", Type: tierdb.Float64Type},
	{Name: "tag", Type: tierdb.StringType, Width: 8},
}

type opts struct {
	addr        string
	selftest    bool
	workers     int
	duration    time.Duration
	readFrac    float64
	pool        int
	preload     int
	checkpoints bool
	mergeRows   int
	sampleRate  float64
}

func main() {
	var o opts
	flag.StringVar(&o.addr, "addr", "", "tierdbd address to drive (mutually exclusive with -selftest)")
	flag.BoolVar(&o.selftest, "selftest", false, "boot an in-process server over loopback TCP and drive it")
	flag.IntVar(&o.workers, "workers", 4, "concurrent closed-loop workers")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "how long to run the workload")
	flag.Float64Var(&o.readFrac, "read-frac", 0.5, "fraction of operations that are reads")
	flag.IntVar(&o.pool, "pool", 0, "client connections; 0 is one per worker, fewer makes workers wait for one and books the wait as latency")
	flag.IntVar(&o.preload, "preload", 10_000, "rows bulk-loaded before the timed run")
	flag.BoolVar(&o.checkpoints, "checkpoints", false, "issue periodic checkpoints (needs a WAL-backed server)")
	flag.IntVar(&o.mergeRows, "merge-rows", 20_000, "selftest: delta rows that trigger background merges")
	flag.Float64Var(&o.sampleRate, "trace-sample-rate", 0.01, "fraction of requests traced end to end [0,1]")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	if o.selftest == (o.addr != "") {
		return errors.New("need exactly one of -addr or -selftest")
	}
	if o.pool <= 0 {
		o.pool = o.workers
	}

	var walDir string
	var db *tierdb.DB
	if o.selftest {
		var err error
		walDir, err = os.MkdirTemp("", "loadgen-selftest-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(walDir)
		db, err = tierdb.Open(tierdb.Config{
			ListenAddr:     "127.0.0.1:0",
			WALDir:         walDir,
			SyncPolicy:     tierdb.SyncGroup,
			MergeDeltaRows: o.mergeRows,
		})
		if err != nil {
			return err
		}
		o.addr = db.ServerAddr()
		o.checkpoints = true
		fmt.Printf("selftest server on %s (wal %s, merges at %d delta rows)\n",
			o.addr, walDir, o.mergeRows)
	}

	acked, err := workload(o)
	if err != nil {
		if db != nil {
			db.Close()
		}
		return err
	}

	if !o.selftest {
		return nil
	}

	// Drain, then recover from the WAL alone: the accounting must hold
	// across the restart for every write the server acknowledged.
	if err := db.Close(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	db2, err := tierdb.Open(tierdb.Config{WALDir: walDir})
	if err != nil {
		return fmt.Errorf("reopen after drain: %w", err)
	}
	defer db2.Close()
	tbl, err := db2.Table(tableName)
	if err != nil {
		return fmt.Errorf("reopen after drain: %w", err)
	}
	want := o.preload + int(acked)
	if got := tbl.Rows(); got != want {
		return fmt.Errorf("recovery mismatch: %d rows on disk, %d acked (%d preload + %d inserts)",
			got, want, o.preload, acked)
	}
	fmt.Printf("recovery check: %d rows survived drain + WAL reopen\n", want)
	return nil
}

// workload runs the timed closed loop and the live accounting check.
// It returns the number of acknowledged inserts.
func workload(o opts) (int64, error) {
	// The client-side tracer samples requests end to end; the slowest
	// traced request's trace ID goes into the final report so it can be
	// pulled up as a span tree via /trace/{id} on the server's
	// observability endpoints.
	tracer := trace.New(trace.Options{SampleRate: o.sampleRate})
	var slowMu sync.Mutex
	var slowest *trace.Span
	tracer.SetOnEnd(func(s *trace.Span) {
		if s.Name != "client.send" {
			return
		}
		slowMu.Lock()
		if slowest == nil || s.Duration() > slowest.Duration() {
			slowest = s
		}
		slowMu.Unlock()
	})
	c, err := client.Dial(client.Config{Addr: o.addr, PoolSize: o.pool, Tracer: tracer})
	if err != nil {
		return 0, err
	}
	defer c.Close()

	if err := c.CreateTable(tableName, fields); err != nil {
		return 0, err
	}
	var nextID atomic.Int64
	if o.preload > 0 {
		rows := make([][]tierdb.Value, o.preload)
		for i := range rows {
			id := nextID.Add(1)
			rows[i] = mkRow(id)
		}
		if err := c.BulkLoad(tableName, rows); err != nil {
			return 0, err
		}
		fmt.Printf("preloaded %d rows\n", o.preload)
	}

	var (
		acked, reads, rejects atomic.Int64
		failures              atomic.Int64
		errMu                 sync.Mutex
		firstErr              string
	)
	recordFailure := func(err error) {
		failures.Add(1)
		errMu.Lock()
		if firstErr == "" {
			firstErr = err.Error()
		}
		errMu.Unlock()
	}
	recorders := make([]*recorder, o.workers)
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		rec := newRecorder()
		recorders[w] = rec
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			backoff := time.Millisecond
			for i := 0; time.Now().Before(deadline); i++ {
				var err error
				start := time.Now()
				isRead := rng.Float64() < o.readFrac
				switch {
				case isRead && i%64 == 63:
					_, err = c.Select(tableName,
						[]server.Predicate{client.Eq("id", tierdb.Int(1+rng.Int63n(max64(1, nextID.Load()))))}, "id")
				case isRead && i%64 == 31:
					_, err = c.Rows(tableName)
				case isRead:
					lo := 1 + rng.Int63n(max64(1, nextID.Load()))
					_, err = c.Select(tableName,
						[]server.Predicate{client.Between("id", tierdb.Int(lo), tierdb.Int(lo+99))}, "id")
				case o.checkpoints && i%2048 == 1024:
					err = c.Checkpoint()
				default:
					id := nextID.Add(1)
					err = c.Insert(tableName, mkRow(id))
					if err != nil {
						// The insert did not happen; the ID is simply
						// never observed again. Only acked inserts
						// count toward the final row total.
						if errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrDraining) {
							rejects.Add(1)
							err = nil
							time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
							backoff = minDur(backoff*2, 100*time.Millisecond)
							continue
						}
					} else {
						acked.Add(1)
					}
				}
				if err != nil {
					if errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrDraining) {
						rejects.Add(1)
						time.Sleep(backoff)
						backoff = minDur(backoff*2, 100*time.Millisecond)
						continue
					}
					recordFailure(err)
					continue
				}
				backoff = time.Millisecond
				if isRead {
					reads.Add(1)
				}
				rec.observe(time.Since(start))
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	merged := mergeRecorders(recorders)
	total := acked.Load() + reads.Load()
	fmt.Printf("ran %d workers for %s: %d acked inserts, %d reads, %d rejects, %d failures\n",
		o.workers, o.duration, acked.Load(), reads.Load(), rejects.Load(), failures.Load())
	if n := len(merged.samples); n > 0 {
		fmt.Printf("throughput: %.0f ops/s   latency p50 %s  p95 %s  p99 %s  max %s\n",
			float64(total)/o.duration.Seconds(),
			merged.quantile(0.50), merged.quantile(0.95),
			merged.quantile(0.99), merged.quantile(1.0))
	}
	slowMu.Lock()
	if slowest != nil {
		fmt.Printf("slowest traced request: %s in %s, trace %s (GET /trace/%s on the observability server)\n",
			slowest.Name, slowest.Duration(), slowest.Trace, slowest.Trace)
	}
	slowMu.Unlock()
	if f := failures.Load(); f > 0 {
		return acked.Load(), fmt.Errorf("%d request failures (first: %s)", f, firstErr)
	}

	// Accounting: the table must hold exactly what the server acked.
	want := o.preload + int(acked.Load())
	got, err := c.Rows(tableName)
	if err != nil {
		return acked.Load(), fmt.Errorf("final row count: %w", err)
	}
	if got != want {
		return acked.Load(), fmt.Errorf("accounting mismatch: server reports %d rows, %d acked (%d preload + %d inserts)",
			got, want, o.preload, acked.Load())
	}
	fmt.Printf("accounting check: %d rows == %d preload + %d acked inserts\n", got, o.preload, acked.Load())
	return acked.Load(), nil
}

func mkRow(id int64) []tierdb.Value {
	return []tierdb.Value{
		tierdb.Int(id),
		tierdb.Float(float64(id) / 3),
		tierdb.String(fmt.Sprintf("w%06d", id%1_000_000)),
	}
}

// recorder collects per-worker latencies without cross-worker sharing.
type recorder struct {
	samples []time.Duration
}

func newRecorder() *recorder { return &recorder{samples: make([]time.Duration, 0, 1<<16)} }

func (r *recorder) observe(d time.Duration) { r.samples = append(r.samples, d) }

func mergeRecorders(rs []*recorder) *recorder {
	m := &recorder{}
	for _, r := range rs {
		m.samples = append(m.samples, r.samples...)
	}
	sort.Slice(m.samples, func(i, j int) bool { return m.samples[i] < m.samples[j] })
	return m
}

// quantile returns the q-th latency quantile; samples must be sorted.
func (r *recorder) quantile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	i := int(q * float64(len(r.samples)-1))
	return r.samples[i]
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
