package workload

import (
	"sync"
	"testing"
)

// closed is one closed window holding n executions of a single plan.
func closed(n float64, columns ...int) []Plan {
	return []Plan{{Columns: columns, Count: n}}
}

func TestHistoryWindowLifecycle(t *testing.T) {
	h := NewHistory(3)
	h.Append(closed(10, 0))
	h.Append(append(closed(20, 0), closed(5, 1, 2)...))
	if h.Windows() != 2 {
		t.Fatalf("Windows = %d", h.Windows())
	}
	series := h.Series()
	if len(series) != 2 {
		t.Fatalf("series = %d plans", len(series))
	}
	// Highest-total plan first: {0} with 30.
	if len(series[0].Columns) != 1 || series[0].Columns[0] != 0 {
		t.Errorf("series[0] plan = %v", series[0].Columns)
	}
	if series[0].Counts[0] != 10 || series[0].Counts[1] != 20 {
		t.Errorf("series[0] counts = %v", series[0].Counts)
	}
	// Plan {1,2} absent in window 0: aligned zero.
	if series[1].Counts[0] != 0 || series[1].Counts[1] != 5 {
		t.Errorf("series[1] counts = %v", series[1].Counts)
	}
}

func TestHistoryCapacityEviction(t *testing.T) {
	h := NewHistory(2)
	for i := 0; i < 5; i++ {
		h.Append(closed(float64(i+1), 0))
	}
	if h.Windows() != 2 {
		t.Fatalf("Windows = %d, want 2", h.Windows())
	}
	series := h.Series()
	if series[0].Counts[0] != 4 || series[0].Counts[1] != 5 {
		t.Errorf("kept windows = %v, want [4 5]", series[0].Counts)
	}
}

func TestHistoryMinimumCapacity(t *testing.T) {
	h := NewHistory(0)
	h.Append(closed(1, 1))
	h.Append(closed(1, 1))
	if h.Windows() != 1 {
		t.Errorf("Windows = %d, want 1", h.Windows())
	}
}

func TestHistoryEmptyWindowCounts(t *testing.T) {
	h := NewHistory(3)
	h.Append(closed(7, 0))
	h.Append(nil) // empty window
	series := h.Series()
	if len(series) != 1 || len(series[0].Counts) != 2 {
		t.Fatalf("series = %+v", series)
	}
	if series[0].Counts[1] != 0 {
		t.Errorf("empty window count = %g", series[0].Counts[1])
	}
}

func TestHistoryConcurrent(t *testing.T) {
	pc := NewPlanCache()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pc.Record([]int{g})
			}
		}(g)
	}
	wg.Wait()
	pc.Rotate()
	total := 0.0
	for _, s := range pc.History().Series() {
		for _, c := range s.Counts {
			total += c
		}
	}
	if total != 2000 {
		t.Errorf("total recorded = %g, want 2000", total)
	}
}

// TestRotateLosesNoRecord closes the window in a loop while four
// goroutines record: every execution must land in exactly one rotated
// window and in the lifetime counts.
func TestRotateLosesNoRecord(t *testing.T) {
	const writers, each = 4, 50_000
	pc := NewPlanCache()
	sum := func(plans []Plan) (n float64) {
		for _, p := range plans {
			n += p.Count
		}
		return n
	}
	stop := make(chan struct{})
	rotated := make(chan float64)
	go func() {
		var n float64
		for {
			select {
			case <-stop:
				rotated <- n
				return
			default:
				n += sum(pc.Rotate())
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pc.Record([]int{g, i % 3})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if got := <-rotated + sum(pc.Rotate()); got != writers*each {
		t.Errorf("rotated windows hold %g executions, want %d", got, writers*each)
	}
	if got := sum(pc.Plans()); got != writers*each {
		t.Errorf("lifetime plans hold %g executions, want %d", got, writers*each)
	}
	if open := pc.CurrentPlans(); len(open) != 0 {
		t.Errorf("open window not empty after the final Rotate: %v", open)
	}
}
