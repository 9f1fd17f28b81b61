// The stats subcommand renders engine metrics as a human-readable
// report:
//
//	tierctl stats -snapshot BENCH_ci.json     # render a saved snapshot
//	tierctl stats -demo                       # run a demo workload live
//	tierctl stats -addr localhost:7070        # fetch from a live instance
//	tierctl stats -addr localhost:7070 -watch 2s   # live refresh
//
// -snapshot accepts either a raw metrics snapshot or a benchrunner
// BENCH_*.json artifact (whose "snapshot" field is used). -addr fetches
// /stats.json from a running instance's observability server
// (tierdb.Config.ObsAddr).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"tierdb"
	"tierdb/internal/metrics"
)

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	snapshotPath := fs.String("snapshot", "", "render a saved metrics snapshot or BENCH_*.json artifact")
	demo := fs.Bool("demo", false, "run a built-in demo workload and print its stats and a query plan")
	addr := fs.String("addr", "", "fetch live stats from a running instance's observability address (host:port or http://...)")
	watch := fs.Duration("watch", 0, "with -addr: clear the screen and refresh every interval (e.g. 2s)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	switch {
	case *addr != "":
		if err := watchStats(os.Stdout, *addr, *watch); err != nil {
			fail("%v", err)
		}
	case *snapshotPath != "":
		out, err := renderStatsFile(*snapshotPath)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(out)
	case *demo:
		if err := statsDemo(); err != nil {
			fail("%v", err)
		}
	default:
		fail("stats needs -snapshot FILE, -demo or -addr ADDR (see tierctl stats -h)")
	}
}

// obsGet fetches path (with its query string) from a live observability
// server at addr, a bare host:port or a full http:// URL. A non-200
// answer is an error carrying the server's message.
func obsGet(addr, path string) ([]byte, error) {
	url := strings.TrimSuffix(addr, "/")
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url += path
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// fetchStats pulls /stats.json from a live observability server.
func fetchStats(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	body, err := obsGet(addr, "/stats.json")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("parse /stats.json from %s: %w", addr, err)
	}
	return snap, nil
}

// watchStats renders live stats once, or repeatedly every interval
// when watch > 0 (clearing the terminal between refreshes). One-shot
// mode fails on the first fetch error; watch mode treats fetch errors
// as transient — it keeps retrying with capped exponential backoff so
// a dashboard survives a server restart instead of exiting the moment
// the port blips.
func watchStats(out *os.File, addr string, watch time.Duration) error {
	return watchLoop(out, addr, watch, time.Sleep, 0)
}

// maxWatchBackoff caps the retry backoff between failed fetches in
// watch mode.
const maxWatchBackoff = 15 * time.Second

// watchLoop is watchStats with an injectable sleep and a bounded count
// of successful renders (rounds <= 0: unbounded), so tests can drive
// the retry path without wall-clock delays.
func watchLoop(out io.Writer, addr string, watch time.Duration, sleep func(time.Duration), rounds int) error {
	backoff := watch
	fails := 0
	for done := 0; ; {
		snap, err := fetchStats(addr)
		if err != nil {
			if watch <= 0 {
				return err
			}
			fails++
			fmt.Fprintf(out, "fetch from %s failed (attempt %d): %v — retrying in %s\n",
				addr, fails, err, backoff)
			sleep(backoff)
			if backoff *= 2; backoff > maxWatchBackoff {
				backoff = maxWatchBackoff
			}
			continue
		}
		fails = 0
		backoff = watch
		if watch > 0 {
			fmt.Fprint(out, "\033[H\033[2J")
		}
		fmt.Fprintf(out, "engine metrics from %s at %s\n\n", addr, time.Now().Format(time.RFC3339))
		fmt.Fprint(out, statsReport(snap))
		if watch <= 0 {
			return nil
		}
		if done++; rounds > 0 && done >= rounds {
			return nil
		}
		sleep(watch)
	}
}

// renderStatsFile loads a snapshot file and renders the report.
func renderStatsFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	// A benchrunner artifact wraps the snapshot; try that shape first.
	var artifact struct {
		Snapshot metrics.Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		return "", fmt.Errorf("parse %s: %w", path, err)
	}
	snap := artifact.Snapshot
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			return "", fmt.Errorf("parse %s: %w", path, err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "engine metrics from %s\n\n", path)
	b.WriteString(statsReport(snap))
	return b.String(), nil
}

// statsReport renders a snapshot with a derived summary ahead of the
// full instrument dump.
func statsReport(snap metrics.Snapshot) string {
	var b strings.Builder
	if q := snap.Counters["exec.queries"]; q > 0 {
		fmt.Fprintf(&b, "queries: %d (%d parallel, %d scan-to-probe switchovers)\n",
			q, snap.Counters["exec.queries.parallel"], snap.Counters["exec.switch.scan_to_probe"])
	}
	hits, misses := snap.Counters["amm.hits"], snap.Counters["amm.misses"]
	if hits+misses > 0 {
		fmt.Fprintf(&b, "amm hit rate: %.2f%% (%d hits, %d misses, %d evictions)\n",
			100*float64(hits)/float64(hits+misses), hits, misses, snap.Counters["amm.evictions"])
	}
	if begun := snap.Counters["mvcc.tx.begin"]; begun > 0 {
		fmt.Fprintf(&b, "transactions: %d begun, %d committed, %d aborted\n",
			begun, snap.Counters["mvcc.tx.commit"], snap.Counters["mvcc.tx.abort"])
	}
	if swaps := snap.Counters["merge.swaps"]; swaps > 0 || snap.Counters["merge.failures"] > 0 {
		fmt.Fprintf(&b, "merges: %d online swaps (%d rows folded, %d stragglers re-based, %d failures); delta %d active / %d frozen rows\n",
			swaps, snap.Counters["merge.rows"], snap.Counters["merge.stragglers"],
			snap.Counters["merge.failures"],
			snap.Gauges["delta.active_rows"].Value, snap.Gauges["delta.frozen_rows"].Value)
	}
	if cycles := snap.Counters["adaptive.cycles"]; cycles > 0 {
		fmt.Fprintf(&b, "adaptive placement: %d cycles (%d applies, %d skips, %d errors); %d bytes moved\n",
			cycles, snap.Counters["adaptive.applies"], snap.Counters["adaptive.skips"],
			snap.Counters["adaptive.errors"], snap.Counters["adaptive.moved_bytes"])
	}
	if reqs := snap.Counters["server.requests_total"]; reqs > 0 || snap.Gauges["server.sessions"].Value > 0 {
		fmt.Fprintf(&b, "server: %d requests (%d rejects, %d errors); %d sessions, %d inflight\n",
			reqs, snap.Counters["server.rejects"], snap.Counters["server.errors"],
			snap.Gauges["server.sessions"].Value, snap.Gauges["server.inflight"].Value)
	}
	if appends := snap.Counters["wal.appends"]; appends > 0 || snap.Counters["wal.replayed_records"] > 0 {
		fmt.Fprintf(&b, "wal: %d appends (%d bytes, %d fsyncs, %d checkpoints); recovery replayed %d records in %s modeled\n",
			appends, snap.Counters["wal.bytes"], snap.Counters["wal.fsyncs"],
			snap.Counters["wal.checkpoints"], snap.Counters["wal.replayed_records"],
			time.Duration(snap.Counters["wal.recovery_ns"]))
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	b.WriteString(snap.Render())
	return b.String()
}

// statsDemo opens an in-memory engine, runs a small tiered workload and
// prints one query's EXPLAIN ANALYZE plan plus the engine-wide report.
func statsDemo() error {
	db, err := tierdb.Open(tierdb.Config{Device: "CSSD", CacheFrames: 128})
	if err != nil {
		return err
	}
	defer db.Close()
	tbl, err := db.CreateTable("demo", []tierdb.Field{
		{Name: "id", Type: tierdb.Int64Type},
		{Name: "region", Type: tierdb.Int64Type},
		{Name: "amount", Type: tierdb.Int64Type},
	})
	if err != nil {
		return err
	}
	rows := make([][]tierdb.Value, 20_000)
	for i := range rows {
		rows[i] = []tierdb.Value{
			tierdb.Int(int64(i)), tierdb.Int(int64(i % 50)), tierdb.Int(int64(i % 1000)),
		}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		return err
	}
	if err := tbl.Inner().ApplyLayout([]bool{true, true, false}); err != nil {
		return err
	}
	region, err := tbl.Eq("region", tierdb.Int(7))
	if err != nil {
		return err
	}
	amount, err := tbl.Between("amount", tierdb.Int(0), tierdb.Int(500))
	if err != nil {
		return err
	}
	_, plan, err := tbl.SelectExplainedCtx(context.Background(), nil, []tierdb.Predicate{region, amount}, "id")
	if err != nil {
		return err
	}
	fmt.Println("demo query plan:")
	fmt.Println(tierdb.RenderExplain(plan))
	fmt.Println(statsReport(db.Stats()))
	return nil
}
