package trace

import (
	"fmt"
	"sync"
	"testing"
)

// checkSpans asserts the snapshot invariants that must survive
// wrap-around under concurrent writers: at most Cap spans, newest
// first, unique seqs, and no torn spans — every span's marker fields
// (StartNs, EndNs, Name), all derived from one value at Add time, must
// still agree when read back.
func checkSpans(t *testing.T, spans []*Span, capacity int) {
	t.Helper()
	if len(spans) > capacity {
		t.Fatalf("snapshot has %d spans, cap %d", len(spans), capacity)
	}
	seen := make(map[uint64]bool, len(spans))
	for i, s := range spans {
		if seen[s.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", s.Seq)
		}
		seen[s.Seq] = true
		if i > 0 && spans[i-1].Seq <= s.Seq {
			t.Fatalf("snapshot not newest-first: seq %d before %d", spans[i-1].Seq, s.Seq)
		}
		if s.EndNs != s.StartNs || s.Name != fmt.Sprintf("m%d", s.StartNs) {
			t.Fatalf("torn span: seq %d start %d end %d name %q", s.Seq, s.StartNs, s.EndNs, s.Name)
		}
	}
}

// TestRingWraparoundConcurrent hammers a small span ring with many
// writers so the publish sequence wraps many times, snapshotting
// throughout, then pins the exact final window after a sequential tail.
func TestRingWraparoundConcurrent(t *testing.T) {
	const (
		capacity = 8
		writers  = 8
		perW     = 400
	)
	r := NewRing(capacity)
	add := func(marker int64) {
		r.Add(&Span{Trace: 1, StartNs: marker, EndNs: marker, Name: fmt.Sprintf("m%d", marker)})
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				checkSpans(t, r.Snapshot(), capacity)
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				add(int64(w*perW + i))
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readers.Wait()

	if got := r.spans().Added(); got != writers*perW {
		t.Fatalf("Added = %d, want %d", got, writers*perW)
	}
	// A slow writer can be the last to store into a slot even though a
	// later seq already landed there, so the concurrent phase only
	// guarantees uniqueness and coherence. A sequential tail of Cap
	// spans deterministically owns every slot: the snapshot must then
	// be exactly the last Cap seqs, descending.
	for i := 0; i < capacity; i++ {
		add(int64(writers*perW + i))
	}
	final := r.Snapshot()
	checkSpans(t, final, capacity)
	if len(final) != capacity {
		t.Fatalf("final snapshot has %d spans, want %d", len(final), capacity)
	}
	added := r.spans().Added()
	for i, s := range final {
		if want := added - 1 - uint64(i); s.Seq != want {
			t.Fatalf("final[%d].Seq = %d, want %d", i, s.Seq, want)
		}
	}
	// ByTrace sees the same window, ordered by start time.
	byTrace := r.ByTrace(1)
	if len(byTrace) != capacity {
		t.Fatalf("ByTrace returned %d spans, want %d", len(byTrace), capacity)
	}
	for i := 1; i < len(byTrace); i++ {
		if byTrace[i-1].StartNs > byTrace[i].StartNs {
			t.Fatalf("ByTrace not start-ordered at %d", i)
		}
	}
}
