package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around calls into
// a layer. Spans live in memory until the run ends. Start and End are
// nanoseconds since the log was created; Calls is how many calls of the
// named function the interval covers (micro-lanes batch them, because a
// clock reading costs more than the cheapest calls measured).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

// spanLog collects spans from several goroutines, each through its own
// buffer so that recording takes no lock.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
	ids   uint64
}

type spanBuf struct {
	log   *spanLog
	base  uint64 // ids are base+1, base+2, ...: disjoint between buffers
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

const idsPerBuffer = 1 << 32

func (l *spanLog) buffer() *spanBuf {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := &spanBuf{log: l, base: l.ids}
	l.ids += idsPerBuffer
	l.bufs = append(l.bufs, b)
	return b
}

// add records a finished span and returns its id. A span without a
// parent starts its own trace; a child joins its parent's.
func (b *spanBuf) add(name string, parent uint64, start, end time.Time, calls int) uint64 {
	id := b.base + uint64(len(b.spans)) + 1
	trace := id
	if parent != 0 {
		trace = b.traceOf(parent)
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(b.log.epoch)), End: int64(end.Sub(b.log.epoch)), Calls: calls,
	})
	return id
}

// open reserves a span whose end is not known yet (a parent recorded
// before its children); close it with finish.
func (b *spanBuf) open(name string, parent uint64, start time.Time) uint64 {
	return b.add(name, parent, start, start, 0)
}

func (b *spanBuf) finish(id uint64, end time.Time) {
	b.spans[id-b.base-1].End = int64(end.Sub(b.log.epoch))
}

func (b *spanBuf) traceOf(id uint64) uint64 {
	if i := id - b.base - 1; i < uint64(len(b.spans)) {
		return b.spans[i].Trace
	}
	return id
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, b := range l.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfRow is one line of the self-time table: per span name, how many
// spans, their total duration, and the part of it no child covers.
type selfRow struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	Calls   int    `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes computes, for every span, its duration minus the part of
// its interval that its children cover (overlapping children count
// once, and a child is clipped to its parent), summed by span name.
func selfTimes(spans []span) []selfRow {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Spans++
		row.Calls += s.Calls
		row.TotalNs += dur
		row.SelfNs += dur - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// writeSpans writes one JSON object per span, then one per row of the
// self-time table.
func writeSpans(path string, spans []span, self []selfRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i := range self {
		if err := enc.Encode(struct {
			Self *selfRow `json:"self_time"`
		}{&self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
