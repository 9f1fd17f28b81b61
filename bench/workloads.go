package main

import (
	"path/filepath"

	"tierdb"
	"tierdb/internal/tpcc"
)

// workerSpec is one client: its traffic and, for an open loop, its rate.
type workerSpec struct {
	Mix mix `json:"mix"`
	// Rate is the offered ops/s of an open-loop worker; 0 means closed
	// loop (the next request leaves when the previous reply is in).
	Rate float64 `json:"rate,omitempty"`
}

// workload is one configuration of the database plus the traffic sent
// to it. Every field is a constant of the benchmark and is recorded in
// the result file; two result files compare only when they agree.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	WAL         bool    `json:"wal"` // WALDir set, SyncGroup at the default interval
	Parallelism int     `json:"parallelism"`
	Budget      float64 `json:"layout_budget"` // 0: all columns DRAM; else tpcc.LayoutForBudget on a PageFile, device ESSD
	CacheFrames int     `json:"cache_frames"`
	Index       bool    `json:"index_ol_o_id"`
	// Merges is how many times the harness calls Table.MergeAsync
	// inside the measured window (see runPhase for when).
	Merges  int          `json:"merges"`
	Workers []workerSpec `json:"workers"`
	// Project names the columns each read kind asks for.
	Project map[opKind][]string `json:"project"`
}

var (
	lookup = mix{Read: "lookup"}
	probe  = mix{Read: "probe", ZipfS: 1.1}
)

// workloads are fixed by name; later issues cite them.
var workloads = []*workload{
	{
		Name:  "oltp_point",
		Why:   "short inserts and indexed order lookups: server, mvcc, delta and wal do the work, scans and tiering none",
		WAL:   true,
		Index: true,
		Workers: []workerSpec{
			{Mix: mix{InsertFrac: 0.6, Read: "lookup"}},
			{Mix: mix{InsertFrac: 0.6, Read: "lookup"}},
		},
		Project: map[opKind][]string{opLookup: {"ol_number", "ol_o_id"}},
	},
	{
		Name:        "olap_scan",
		Why:         "one client's CH-Q6 scans over DRAM columns at Parallelism 2: exec and column are the request, the wire is noise",
		Parallelism: 2,
		Workers:     []workerSpec{{Mix: mix{Read: "q6"}}},
		Project:     map[opKind][]string{opQ6: {"ol_amount"}},
	},
	{
		Name:        "tiered_probe",
		Why:         "order lookups reconstructing tuples from an SSCG 20x larger than the page cache: sscg, amm, file preads",
		Budget:      0.2,
		CacheFrames: 256,
		Index:       true,
		Workers:     []workerSpec{{Mix: probe}, {Mix: probe}},
		Project: map[opKind][]string{
			opLookup:    {"ol_i_id", "ol_quantity", "ol_amount", "ol_dist_info"},
			opLookupQty: {"ol_amount"},
		},
	},
	{
		Name:        "htap_mixed",
		Why:         "paced inserts beside day scans over main plus a growing delta while merges and checkpoints run; cache fits",
		WAL:         true,
		Budget:      0.4,
		CacheFrames: 8192,
		Index:       true,
		Merges:      3,
		Workers: []workerSpec{
			{Mix: mix{InsertFrac: 1}, Rate: 1000},
			{Mix: mix{Read: "dayscan"}, Rate: 40},
		},
		Project: map[opKind][]string{opDayScan: {"ol_amount"}},
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl
		}
	}
	return nil
}

// config is the tierdb.Config the workload runs under, rooted in dir.
// Merge thresholds stay 0 so the scheduler never races a BulkLoad
// (ROADMAP item 3); DisableMetrics stays false, the product default.
func (wl *workload) config(dir string) tierdb.Config {
	cfg := tierdb.Config{
		Parallelism: wl.Parallelism,
		CacheFrames: wl.CacheFrames,
		LogLevel:    "warn",
	}
	if wl.WAL {
		cfg.WALDir = filepath.Join(dir, "wal")
		cfg.SyncPolicy = tierdb.SyncGroup
	}
	if wl.Budget > 0 {
		cfg.PageFile = filepath.Join(dir, "pages")
		cfg.Device = "ESSD"
	}
	return cfg
}

func (wl *workload) layout() []bool {
	if wl.Budget == 0 {
		return nil
	}
	return tpcc.LayoutForBudget(wl.Budget)
}

// offered is the rate the open-loop workers send at, in ops/s; 0 for a
// closed-loop workload.
func (wl *workload) offered() float64 {
	var sum float64
	for _, w := range wl.Workers {
		sum += w.Rate
	}
	return sum
}
