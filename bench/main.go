// Command bench is tierdb's wall-clock benchmark: four ORDERLINE
// workloads served in-process over loopback TCP, end-to-end metrics from
// an untraced run and a per-layer ledger from a traced one. README.md
// has the workloads, the metrics and how to read them.
//
//	go run ./bench                      all workloads, untraced; writes BENCH_wall.json
//	go run ./bench -trace 1             ... then the traced runs; writes spans.jsonl too
//	go run ./bench -workload olap_scan -seed 3 -seconds 10 -trace 0
//	                                    one run the way BENCHMARK.json's driver makes it:
//	                                    the last line of output is its result as JSON
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print its result as one JSON line; -trace then selects the traced or the untraced run")
		seed    = flag.Int64("seed", 1, "seed of the generated data and op streams")
		seconds = flag.Float64("seconds", 10, "length of the measured window; warm-up and traced passes scale with it")
		trace   = flag.Int("trace", 0, "1: traced run (per-layer metrics); 0: untraced run (end-to-end metrics)")
		runs    = flag.Int("runs", 1, "repeat the whole set this many times, with seeds seed, seed+1, ...")
		smoke   = flag.Bool("smoke", false, "tiny dataset and lanes: checks the harness, measures nothing")
		out     = flag.String("out", "", "result file (default BENCH_wall.json, or none with -workload)")
		spanOut = flag.String("spans", "", "span file of the traced runs (default spans.jsonl, or none with -workload)")
		tmp     = flag.String("tmp", ".bench_tmp", "scratch directory for page files and logs, created inside the working directory")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, -seconds positive, -runs at least 1"))
	}
	opt := options{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		sc: fullScale, laneSc: laneScale, lanes: fullLanes, tmp: *tmp,
	}
	if *smoke {
		opt.sc, opt.laneSc, opt.lanes, opt.smoke = smokeScale, smokeScale, smokeLanes, true
	} else if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		// Two workers plus the server on one core measure the Go
		// scheduler, not tierdb.
		fatal(fmt.Errorf("need at least 2 CPUs to produce numbers (have %d, GOMAXPROCS %d); -smoke runs anyway", runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	}
	selected := workloads
	untraced, traced := true, *trace == 1
	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{wl}
		untraced = !traced
	} else {
		if *out == "" {
			*out = "BENCH_wall.json"
		}
		if *spanOut == "" && traced {
			*spanOut = "spans.jsonl"
		}
	}

	file := resultFile{Env: environment(opt), Workloads: workloads}
	spans := newSpanLog()
	for i := 0; i < *runs; i++ {
		o := opt
		o.seed += int64(i)
		file.Env.Seeds = append(file.Env.Seeds, o.seed)
		rs, err := runSet(os.Stdout, selected, o, untraced, traced, spans)
		if err != nil {
			fatal(err)
		}
		file.Runs = append(file.Runs, rs...)
	}
	if *spanOut != "" {
		all := spans.all()
		if err := writeSpans(*spanOut, all, selfTimes(all)); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
	correct := true
	for _, r := range file.Runs {
		correct = correct && r.Correct
	}
	if *name != "" {
		// The driver reads the last line of standard output.
		line, err := driverLine(file.Runs[len(file.Runs)-1])
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: a run failed its checks; a wrong answer is not a fast one")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runSet runs the selected workloads once on one seed's data: every
// untraced run first, then the micro-lanes and the traced runs.
func runSet(w io.Writer, selected []*workload, opt options, untraced, traced bool, spans *spanLog) ([]*result, error) {
	ds := generate(opt.sc, opt.seed)
	var out []*result
	if untraced {
		for _, wl := range selected {
			r, err := runUntraced(wl, ds, opt)
			if err != nil {
				return nil, err
			}
			printResult(w, r, endToEnd)
			out = append(out, r)
		}
	}
	if traced {
		lanes, err := runLanes(opt.seed, opt.laneSc, opt.lanes, opt.tmp, spans)
		if err != nil {
			return nil, err
		}
		for _, wl := range selected {
			r, err := runTraced(wl, ds, opt, lanes, spans)
			if err != nil {
				return nil, err
			}
			printResult(w, r, perLayer)
			out = append(out, r)
		}
	}
	return out, nil
}

// printResult prints every metric of a run by name, with its unit and,
// beside a percentile, its sample count.
func printResult(w io.Writer, r *result, defs []metricDef) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  attempted %d  failed %d  correct %v\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-5s%s\n", d.Name, m.Value, m.Unit, n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// driverLine renders a run the way BENCHMARK.json's contract wants it:
// exactly the listed metrics of its kind, each with value and unit.
func driverLine(r *result) (string, error) {
	defs := gated()
	if r.Traced {
		defs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s did not report %s", r.Workload, d.Name)
		}
		metrics[d.Name] = valueUnit{m.Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}
