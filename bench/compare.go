package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// verdict is -compare's finding for one end-to-end metric on one
// workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs b of a candidate with the runs a of a
// baseline. The candidate regressed when its median is worse than the
// baseline's by more than the bound. When either side's spread
// (interquartile range over median) is wider than the bound the pair is
// unresolved rather than unchanged — unless every run of the candidate
// reads better than every run of the baseline.
func judge(d metricDef, a, b []float64) (v verdict, change, spread float64) {
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	worse := mb - ma
	if d.Better == "higher" {
		worse = ma - mb
	}
	limit := d.Bound * math.Abs(ma)
	if d.Name == "error_frac" { // an absolute bound: the baseline is 0
		limit, change = d.Bound, worse
	} else if ma != 0 && mb != 0 {
		change = worse / math.Abs(ma)
		spread = math.Max((a3-a1)/math.Abs(ma), (b3-b1)/math.Abs(mb))
	}
	switch {
	case worse > limit:
		return verdictRegressed, change, spread
	case spread > d.Bound && !allBetter(d, a, b):
		return verdictUnresolved, change, spread
	}
	return verdictOK, change, spread
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "lower" && y >= x || d.Better == "higher" && y <= x {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed. It refuses files whose environments or
// workload constants differ: their numbers do not measure the same
// thing.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if why := a.Env.comparableTo(b.Env); why != "" {
		return false, fmt.Errorf("refusing to compare: %s", why)
	}
	wa, _ := json.Marshal(a.Workloads)
	wb, _ := json.Marshal(b.Workloads)
	if string(wa) != string(wb) {
		return false, fmt.Errorf("refusing to compare: workload constants differ")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tworse by\tspread\tbound\tverdict")
	counts := map[verdict]int{}
	for _, wl := range a.Workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s is in only one of the files", wl.Name, d.Name)
			}
			v, change, spread := judge(d, va, vb)
			counts[v]++
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d)\t%.4g (%d)\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, d.Name, ma, d.Unit, len(va), mb, len(vb), 100*change, 100*spread, 100*d.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	return counts[verdictRegressed] > 0, nil
}

// values collects a metric's values over the untraced runs of a
// workload.
func values(f *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
