package workload

import (
	"sort"
	"sync"
)

// History stores the closed moving windows of a plan cache (the paper's
// Section VI: "varying time frames (moving windows) of historic
// workload data can be used to feed the model"). PlanCache.Rotate
// appends a window whenever the caller's time frame elapses (e.g.
// hourly or daily); History keeps the most recent `capacity` windows
// and produces aligned per-plan frequency series for the forecast
// package.
type History struct {
	mu       sync.Mutex
	capacity int
	windows  []map[string]Plan // oldest first
}

// NewHistory keeps up to capacity closed windows (minimum 1).
func NewHistory(capacity int) *History {
	if capacity < 1 {
		capacity = 1
	}
	return &History{capacity: capacity}
}

// Append stores one closed window's distinct plans (columns sorted, as
// Rotate returns them). The oldest window is dropped beyond capacity.
func (h *History) Append(plans []Plan) {
	window := make(map[string]Plan, len(plans))
	for _, p := range plans {
		window[planKey(p.Columns)] = p
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.windows = append(h.windows, window)
	if len(h.windows) > h.capacity {
		h.windows = h.windows[len(h.windows)-h.capacity:]
	}
}

// Windows returns the number of closed windows.
func (h *History) Windows() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.windows)
}

// PlanSeries is one distinct plan with its aligned per-window
// frequencies (0 where the plan did not run).
type PlanSeries struct {
	Columns []int
	Counts  []float64 // one entry per closed window, oldest first
}

// Series returns every plan seen in any closed window with its aligned
// frequency series, ordered by total count descending (ties by key).
func (h *History) Series() []PlanSeries {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys := make(map[string][]int)
	for _, w := range h.windows {
		for k, p := range w {
			if _, seen := keys[k]; !seen {
				keys[k] = append([]int(nil), p.Columns...)
			}
		}
	}
	out := make([]PlanSeries, 0, len(keys))
	for k, cols := range keys {
		counts := make([]float64, len(h.windows))
		for i, w := range h.windows {
			if p, ok := w[k]; ok {
				counts[i] = p.Count
			}
		}
		out = append(out, PlanSeries{Columns: cols, Counts: counts})
	}
	sort.Slice(out, func(a, b int) bool {
		ta, tb := 0.0, 0.0
		for _, c := range out[a].Counts {
			ta += c
		}
		for _, c := range out[b].Counts {
			tb += c
		}
		if ta != tb {
			return ta > tb
		}
		return planKey(out[a].Columns) < planKey(out[b].Columns)
	})
	return out
}
