package mvcc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// denseVersions is the reference store: four dense vectors, one entry
// per row, and the visibility rule over them. Every Versions answer must
// equal its answer, whatever part of the store a row sits in.
type denseVersions struct {
	begin, end    []Timestamp
	owner, intent []TxID
}

func (d *denseVersions) append(begin, end Timestamp, owner TxID) {
	d.begin = append(d.begin, begin)
	d.end = append(d.end, end)
	d.owner = append(d.owner, owner)
	d.intent = append(d.intent, 0)
}

func (d *denseVersions) visible(row int, snapshot Timestamp, self TxID) bool {
	if row < 0 || row >= len(d.begin) {
		return false
	}
	if self != 0 && d.intent[row] == self {
		return false
	}
	switch begin := d.begin[row]; {
	case begin == 0:
		return self != 0 && d.owner[row] == self
	case begin == Infinity, begin > snapshot:
		return false
	}
	return d.end[row] > snapshot
}

func (d *denseVersions) markDelete(row int, tx TxID) error {
	switch {
	case row < 0 || row >= len(d.begin):
		return errors.New("out of range")
	case d.intent[row] != 0 && d.intent[row] != tx,
		d.owner[row] != 0 && d.owner[row] != tx,
		d.end[row] != Infinity:
		return ErrWriteConflict
	}
	d.intent[row] = tx
	return nil
}

// script reads a test's operations from bytes, so the seeded test and
// the fuzz target drive the same interpreter.
type script struct {
	b []byte
	i int
}

func (s *script) more() bool { return s.i < len(s.b) }

// next returns the next byte modulo n (0 once the bytes run out).
func (s *script) next(n int) int {
	if !s.more() {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

// checkVersionsMatchDense builds a main-shaped store (shared rows at one
// begin, then a dense tail) and its dense twin from the script, applies
// the script's operations to both — delete intents, commits and aborts,
// SetEnds, pending, committed and aborted inserts — and compares every
// read after every few operations.
func checkVersionsMatchDense(t *testing.T, b []byte) {
	s := &script{b: b}
	shared, base := s.next(256), Timestamp(1+s.next(100))
	tail := make([]Timestamp, s.next(40))
	for i := range tail {
		tail[i] = Timestamp(1 + s.next(100))
	}
	v := NewVersionsAt(shared, base, tail)
	d := &denseVersions{}
	for range shared {
		d.append(base, Infinity, 0)
	}
	for _, begin := range tail {
		d.append(begin, Infinity, 0)
	}
	check := func() {
		t.Helper()
		compareWithDense(t, v, d, s, base)
	}
	for op := 0; s.more(); op++ {
		row, tx, ts := s.next(len(d.begin)+2)-1, TxID(1+s.next(3)), Timestamp(1+s.next(150))
		inRange := row >= 0 && row < len(d.begin)
		switch s.next(8) {
		case 0:
			got, want := v.MarkDelete(row, tx), d.markDelete(row, tx)
			if (got == nil) != (want == nil) || errors.Is(got, ErrWriteConflict) != errors.Is(want, ErrWriteConflict) {
				t.Fatalf("op %d: MarkDelete(%d, %d) = %v, want %v", op, row, tx, got, want)
			}
		case 1: // the intent's transaction commits
			if inRange && d.intent[row] != 0 {
				v.CommitDelete(row, ts)
				d.end[row], d.intent[row] = ts, 0
			}
		case 2:
			if inRange {
				v.AbortDelete(row, tx)
				if d.intent[row] == tx {
					d.intent[row] = 0
				}
			}
		case 3:
			if inRange {
				v.SetEnds([]int{row}, []Timestamp{ts})
				d.end[row] = ts
			}
		case 4:
			if got := v.AppendPending(tx); got != len(d.begin) {
				t.Fatalf("op %d: AppendPending at %d, want %d", op, got, len(d.begin))
			}
			d.append(0, Infinity, tx)
		case 5: // a pending insert commits or aborts
			if inRange && d.begin[row] == 0 && d.owner[row] != 0 {
				if ts%2 == 0 {
					v.CommitInsert(row, ts)
					d.begin[row], d.owner[row] = ts, 0
				} else {
					v.AbortInsert(row)
					d.begin[row], d.end[row], d.owner[row] = Infinity, 0, 0
				}
			}
		case 6:
			v.AppendCommittedN(1, ts)
			d.append(ts, Infinity, 0)
		default:
			end := ts + Timestamp(s.next(40))
			v.AppendAt(ts, end)
			d.append(ts, end, 0)
		}
		if op%16 == 15 {
			check()
		}
	}
	check()
}

// compareWithDense holds every read of v to d's answer at snapshots
// below, at and above the shared begin, for non-transactional and
// transactional readers, with out-of-range positions in the lists.
func compareWithDense(t *testing.T, v *Versions, d *denseVersions, s *script, base Timestamp) {
	t.Helper()
	n := len(d.begin)
	if rowsOf(v) != n {
		t.Fatalf("Len = %d, want %d", rowsOf(v), n)
	}
	unsettled := false
	for row := range n {
		pending := (d.begin[row] == 0 && d.owner[row] != 0) || d.intent[row] != 0
		unsettled = unsettled || pending
		want := RowState{Begin: d.begin[row], End: d.end[row], Pending: pending}
		if got := v.State(row); got != want {
			t.Fatalf("State(%d) = %+v, want %+v", row, got, want)
		}
	}
	if got := v.Unsettled(); got != unsettled {
		t.Fatalf("Unsettled = %v, want %v", got, unsettled)
	}
	if begin, end := v.Stamps(); !slices.Equal(begin, d.begin) || !slices.Equal(end, d.end) {
		t.Fatalf("Stamps = %v %v, want %v %v", begin, end, d.begin, d.end)
	}
	for _, snapshot := range []Timestamp{0, base - 1, base, base + 1, 75, 160, Infinity} {
		var deleted []int
		for row, end := range d.end {
			if end > snapshot && end != Infinity {
				deleted = append(deleted, row)
			}
		}
		if rows, ends := v.DeletedAfter(snapshot); !slices.Equal(rows, deleted) || len(ends) != len(rows) {
			t.Fatalf("DeletedAfter(%d) = %v, want %v", snapshot, rows, deleted)
		} else {
			for i, row := range rows {
				if ends[i] != d.end[row] {
					t.Fatalf("DeletedAfter(%d): row %d ends %d, want %d", snapshot, row, ends[i], d.end[row])
				}
			}
		}
		live := 0
		for row := range n {
			if d.visible(row, snapshot, 0) {
				live++
			}
		}
		if got := v.LiveAt(snapshot); got != live {
			t.Fatalf("LiveAt(%d) = %d, want %d", snapshot, got, live)
		}
		for self := TxID(0); self <= 3; self++ {
			var pos, want []uint32
			for row := -1; row < n+3; row++ {
				if got := v.Visible(row, snapshot, self); got != d.visible(row, snapshot, self) {
					t.Fatalf("Visible(%d, %d, %d) = %v", row, snapshot, self, got)
				}
				if row >= 0 && s.next(3) > 0 {
					pos = append(pos, uint32(row))
					if d.visible(row, snapshot, self) {
						want = append(want, uint32(row))
					}
				}
			}
			if got := v.FilterVisible(slices.Clone(pos), snapshot, self); !slices.Equal(got, want) {
				t.Fatalf("FilterVisible(%v, %d, %d) = %v, want %v", pos, snapshot, self, got, want)
			}
			lo, hi := s.next(n+3)-2, s.next(n+5)
			want = []uint32{7}
			for row := max(lo, 0); row < hi; row++ {
				if d.visible(row, snapshot, self) {
					want = append(want, uint32(row))
				}
			}
			if got := v.VisibleIn(lo, hi, snapshot, self, []uint32{7}); !slices.Equal(got, want) {
				t.Fatalf("VisibleIn(%d, %d, %d, %d) = %v, want %v", lo, hi, snapshot, self, got, want)
			}
		}
	}
}

// TestMainVersionsMatchDense runs the dense oracle over 240 seeded
// scripts.
func TestMainVersionsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for c := 0; c < 240; c++ {
		b := make([]byte, 40+rng.Intn(400))
		rng.Read(b)
		checkVersionsMatchDense(t, b)
	}
}

// FuzzVersionsMatchDense is the same oracle over fuzzed scripts.
func FuzzVersionsMatchDense(f *testing.F) {
	f.Add([]byte{200, 7, 3, 5, 9, 11, 0, 1, 1, 0, 1, 2, 1, 3, 3, 3})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(checkVersionsMatchDense)
}

// TestSharedVersionsBytes holds a main-shaped store to what it keeps:
// nothing per shared row, a few bytes per exception, 32 per dense row.
func TestSharedVersionsBytes(t *testing.T) {
	begins := make([]Timestamp, 300_000)
	for i := range begins {
		begins[i] = 4
	}
	v := NewVersionsAt(0, 0, begins)
	if n, begin := v.Shared(); n != 300_000 || begin != 4 || v.Bytes() != 0 {
		t.Fatalf("shared %d at %d, %d bytes", n, begin, v.Bytes())
	}
	if err := v.MarkDelete(17, 9); err != nil {
		t.Fatal(err)
	}
	v.CommitDelete(17, 5)
	v.AppendCommittedN(1, 6)
	if got := v.Bytes(); got != exceptionBytes+32 {
		t.Fatalf("Bytes = %d, want %d", got, exceptionBytes+32)
	}
}
