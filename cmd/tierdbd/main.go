// Command tierdbd runs a tierdb instance as a network daemon: the wire
// protocol (inserts, bulk loads, selects, checkpoints, layout changes)
// on -listen and, optionally, the observability HTTP endpoints (stats,
// layout advice, EXPLAIN) on -obs. SIGINT/SIGTERM trigger a graceful
// drain: the server stops accepting, inflight requests finish and
// answer, and only then do the WAL and merge scheduler wind down — so
// every acknowledged write is on disk when the process exits.
//
//	tierdbd -listen :7070 -obs :7071 -waldir /var/lib/tierdb/wal
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tierdb"
)

func main() {
	var (
		listen       = flag.String("listen", ":7070", "wire-protocol listen address")
		obs          = flag.String("obs", "", "observability HTTP listen address (empty: off)")
		waldir       = flag.String("waldir", "", "write-ahead log directory (empty: volatile)")
		sync         = flag.String("sync", "always", "WAL sync policy: always, group or off")
		device       = flag.String("device", "", `secondary-storage model ("CSSD", "ESSD", "HDD", "3D XPoint")`)
		cacheFrames  = flag.Int("cache-frames", 1024, "AMM page cache size in 4 KB frames")
		parallelism  = flag.Int("parallelism", 0, "scan worker goroutines (<=1: serial)")
		maxSessions  = flag.Int("max-sessions", 0, "cap on concurrent sessions (0: default)")
		maxInflight  = flag.Int("max-inflight", 0, "cap on requests executing at once (0: default)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on shutdown")
		mergeRows    = flag.Int("merge-rows", 0, "delta rows that trigger a background merge (0: off)")
		mergeBytes   = flag.Int64("merge-bytes", 0, "delta bytes that trigger a background merge (0: off)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat    = flag.String("log-format", "text", "log encoding: text or json")
		requestLog   = flag.Bool("request-log", false, "emit one structured event per network request")
		sampleRate   = flag.Float64("trace-sample-rate", 0, "fraction of requests traced end to end [0,1]")
		version      = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(versionString(tierdb.Build()))
		return
	}
	var policy tierdb.SyncPolicy
	switch *sync {
	case "always":
		policy = tierdb.SyncAlways
	case "group":
		policy = tierdb.SyncGroup
	case "off":
		policy = tierdb.SyncOff
	default:
		fmt.Fprintf(os.Stderr, "tierdbd: unknown -sync %q (want always, group or off)\n", *sync)
		os.Exit(1)
	}
	cfg := tierdb.Config{
		Device:          *device,
		CacheFrames:     *cacheFrames,
		Parallelism:     *parallelism,
		WALDir:          *waldir,
		SyncPolicy:      policy,
		ListenAddr:      *listen,
		ObsAddr:         *obs,
		MaxSessions:     *maxSessions,
		MaxInflight:     *maxInflight,
		DrainTimeout:    *drainTimeout,
		MergeDeltaRows:  *mergeRows,
		MergeDeltaBytes: *mergeBytes,
		LogLevel:        *logLevel,
		LogFormat:       *logFormat,
		RequestLog:      *requestLog,
		TraceSampleRate: *sampleRate,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tierdbd:", err)
		os.Exit(1)
	}
}

// versionString renders -version output: the same version, revision and
// Go version the tierdb_build_info metric series carries.
func versionString(bi tierdb.BuildInfo) string {
	s := "tierdbd " + bi.Version
	if bi.Revision != "" {
		s += " (" + bi.Revision + ")"
	}
	return s + " " + bi.GoVersion
}

func run(cfg tierdb.Config) error {
	db, err := tierdb.Open(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("tierdbd: serving on %s\n", db.ServerAddr())
	if cfg.ObsAddr != "" {
		fmt.Printf("tierdbd: observability on %s\n", db.ObsURL())
	}
	if cfg.WALDir == "" {
		fmt.Println("tierdbd: WARNING: no -waldir, data is volatile")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("tierdbd: %s, draining\n", s)
	if err := db.Close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("tierdbd: clean shutdown")
	return nil
}
