// Command tierctl runs the column selection model on a workload
// description and prints the recommended data placement.
//
// The workload is a JSON file:
//
//	{
//	  "columns": [
//	    {"name": "BELNR", "size": 67108864, "selectivity": 1e-6, "pinned": false},
//	    ...
//	  ],
//	  "queries": [
//	    {"columns": ["BELNR", "BUKRS"], "frequency": 1200},
//	    ...
//	  ]
//	}
//
// Usage:
//
//	tierctl -workload w.json -w 0.2                 # explicit solution
//	tierctl -workload w.json -budget 1073741824 -method ilp
//	tierctl -workload w.json -frontier               # Pareto sweep
//	tierctl -example 50,500 -w 0.3                   # built-in Example 1
//	tierctl stats -snapshot BENCH_ci.json            # render saved engine metrics
//	tierctl stats -demo                              # live demo workload + plan
//	tierctl stats -addr localhost:7070 -watch 2s     # live stats from a running instance
//	tierctl explain -addr localhost:7070 -table orders -q region=7,amount=100..200
//	tierctl explain -addr localhost:7070 -table orders -q region=7 -analyze -json
//
// stats -addr and explain -addr name a running instance's observability
// address (tierdb.Config.ObsAddr, tierdbd -obs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tierdb/internal/core"
)

type jsonColumn struct {
	Name        string  `json:"name"`
	Size        int64   `json:"size"`
	Selectivity float64 `json:"selectivity"`
	Pinned      bool    `json:"pinned,omitempty"`
}

type jsonQuery struct {
	Columns   []json.RawMessage `json:"columns"`
	Frequency float64           `json:"frequency"`
}

type jsonWorkload struct {
	Columns []jsonColumn `json:"columns"`
	Queries []jsonQuery  `json:"queries"`
}

func loadWorkload(path string) (*core.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jw jsonWorkload
	if err := json.Unmarshal(data, &jw); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	byName := make(map[string]int, len(jw.Columns))
	w := &core.Workload{}
	for i, c := range jw.Columns {
		byName[c.Name] = i
		w.Columns = append(w.Columns, core.Column{
			Name:        c.Name,
			Size:        c.Size,
			Selectivity: c.Selectivity,
			Pinned:      c.Pinned,
		})
	}
	for qi, q := range jw.Queries {
		cols := make([]int, 0, len(q.Columns))
		for _, raw := range q.Columns {
			var name string
			if err := json.Unmarshal(raw, &name); err == nil {
				idx, ok := byName[name]
				if !ok {
					return nil, fmt.Errorf("query %d references unknown column %q", qi, name)
				}
				cols = append(cols, idx)
				continue
			}
			var idx int
			if err := json.Unmarshal(raw, &idx); err != nil {
				return nil, fmt.Errorf("query %d: column reference %s is neither name nor index", qi, raw)
			}
			cols = append(cols, idx)
		}
		w.Queries = append(w.Queries, core.Query{Columns: cols, Frequency: q.Frequency})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tierctl: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}
	var (
		workloadPath = flag.String("workload", "", "workload JSON file")
		example      = flag.String("example", "", "generate Example 1 instead: N,Q[,seed]")
		budget       = flag.Int64("budget", 0, "DRAM budget in bytes")
		relBudget    = flag.Float64("w", 0, "relative DRAM budget in [0,1]")
		method       = flag.String("method", "explicit", "ilp | explicit | filling | greedy | h1 | h2 | h3")
		beta         = flag.Float64("beta", 0, "reallocation cost per byte (uses -current)")
		currentPath  = flag.String("current", "", "JSON array of booleans: current allocation y")
		frontier     = flag.Bool("frontier", false, "print the Pareto frontier over w = 0.05..1")
		verbose      = flag.Bool("v", false, "print the per-column decision")
	)
	flag.Parse()

	var w *core.Workload
	var err error
	switch {
	case *workloadPath != "":
		w, err = loadWorkload(*workloadPath)
		if err != nil {
			fail("%v", err)
		}
	case *example != "":
		parts := strings.Split(*example, ",")
		if len(parts) < 2 {
			fail("-example needs N,Q[,seed]")
		}
		n, err1 := strconv.Atoi(parts[0])
		q, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fail("-example needs numeric N,Q")
		}
		seed := int64(42)
		if len(parts) > 2 {
			s, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				fail("bad seed %q", parts[2])
			}
			seed = s
		}
		w, err = core.Example1(core.Example1Config{Columns: n, Queries: q, Seed: seed})
		if err != nil {
			fail("%v", err)
		}
	default:
		fail("need -workload file or -example N,Q (see -h)")
	}

	params := core.DefaultCostParams()

	if *frontier {
		var budgets []float64
		for f := 0.05; f <= 1.0001; f += 0.05 {
			budgets = append(budgets, f)
		}
		points, err := core.Frontier(w, params, budgets, core.FrontierILP)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%-8s  %-14s  %-12s  %s\n", "w", "memory", "relPerf", "columns in DRAM")
		for _, pt := range points {
			fmt.Printf("%-8.2f  %-14d  %-12.4f  %d\n",
				pt.RelativeBudget, pt.Allocation.Memory, pt.RelativePerformance, pt.Allocation.CountInDRAM())
		}
		return
	}

	b := *budget
	if b == 0 {
		if *relBudget <= 0 {
			fail("need -budget or -w")
		}
		b = int64(*relBudget * float64(w.TotalSize()))
	}

	var current []bool
	if *currentPath != "" {
		data, err := os.ReadFile(*currentPath)
		if err != nil {
			fail("%v", err)
		}
		if err := json.Unmarshal(data, &current); err != nil {
			fail("parse current allocation: %v", err)
		}
	}

	var alloc core.Allocation
	switch *method {
	case "ilp":
		alloc, err = core.OptimalILPRealloc(w, params, b, current, *beta)
	case "explicit":
		alloc, err = core.ExplicitForBudget(w, params, b, current, *beta)
	case "filling":
		alloc, err = core.FillingForBudget(w, params, b, current, *beta)
	case "greedy":
		alloc, err = core.GreedyRatio(w, params, b)
	case "h1":
		alloc, err = core.SolveHeuristic(w, params, b, core.HeuristicFrequency)
	case "h2":
		alloc, err = core.SolveHeuristic(w, params, b, core.HeuristicSelectivity)
	case "h3":
		alloc, err = core.SolveHeuristic(w, params, b, core.HeuristicSelectivityFrequency)
	default:
		fail("unknown method %q", *method)
	}
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("method:               %s\n", *method)
	fmt.Printf("budget:               %d bytes (w=%.3f)\n", b, float64(b)/float64(w.TotalSize()))
	fmt.Printf("memory used:          %d bytes\n", alloc.Memory)
	fmt.Printf("columns in DRAM:      %d / %d\n", alloc.CountInDRAM(), len(w.Columns))
	fmt.Printf("estimated scan cost:  %.6g\n", alloc.Cost)
	fmt.Printf("relative performance: %.4f\n", core.RelativePerformance(w, params, alloc))
	if *verbose {
		fmt.Println("\ncolumn placement:")
		for i, c := range w.Columns {
			tier := "SSCG (secondary storage)"
			if alloc.InDRAM[i] {
				tier = "MRC (DRAM)"
			}
			fmt.Printf("  %-24s %12d B  sel=%-10.3g %s\n", c.Name, c.Size, c.Selectivity, tier)
		}
	}
}
