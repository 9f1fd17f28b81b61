package trace

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRendering(t *testing.T) {
	id := TraceID(0xdeadbeef)
	if got := id.String(); got != "00000000deadbeef" {
		t.Fatalf("TraceID.String() = %q", got)
	}
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseTraceID roundtrip = %v, %v", back, err)
	}
	if _, err := ParseTraceID("0"); err == nil {
		t.Error("zero trace id accepted")
	}
	if _, err := ParseTraceID("nothex"); err == nil {
		t.Error("non-hex trace id accepted")
	}
	var s SpanID
	if err := json.Unmarshal([]byte(`"00000000000000ff"`), &s); err != nil || s != 0xff {
		t.Fatalf("SpanID json roundtrip = %v, %v", s, err)
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(Options{SampleRate: 1, ringSize: 64, seed: 7})
	root := tr.Start("client.send", String("op", "select"))
	if root == nil {
		t.Fatal("sampled Start returned nil")
	}
	if root.Trace == 0 || root.ID == 0 || root.Parent != 0 {
		t.Fatalf("bad root identifiers: %+v", root)
	}
	child := root.Child("server.request", Int("rows", 3))
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("bad child links: %+v", child)
	}
	child.SetError(errors.New("boom"))
	child.SetAttr(Bool("ok", false), Float("frac", 0.5))
	child.End()
	root.End()
	if root.EndNs < root.StartNs {
		t.Fatal("end before start")
	}
	spans := tr.Ring().ByTrace(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(spans))
	}
	if spans[0].Name != "client.send" || spans[1].Name != "server.request" {
		t.Fatalf("wrong order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Err != "boom" {
		t.Fatalf("child err = %q", spans[1].Err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer sampled")
	}
	// Every span method must be a no-op on nil.
	s.SetAttr(String("k", "v"))
	s.SetError(errors.New("x"))
	s.ChildAt("y", 1, 2)
	s.Child("z").End()
	s.End()
	if s.Duration() != 0 {
		t.Fatal("nil span has duration")
	}
	if tr.StartRemote(5, 0, "r") != nil {
		t.Fatal("nil tracer StartRemote sampled")
	}
	if tr.Ring().Snapshot() != nil || tr.Ring().ByTrace(1) != nil {
		t.Fatal("nil ring returned spans")
	}
	tr.SetOnEnd(func(*Span) {})
	if tr.Start("s") != nil {
		t.Fatal("nil tracer sampled a root")
	}
	if FromContext(NewContext(context.Background(), nil)) != nil {
		t.Fatal("nil span stored in context")
	}
}

func TestSamplingRates(t *testing.T) {
	never := New(Options{SampleRate: 0, seed: 1})
	always := New(Options{SampleRate: 1, seed: 1})
	half := New(Options{SampleRate: 0.5, seed: 1})
	const n = 2000
	sampled := 0
	for i := 0; i < n; i++ {
		if never.Start("x") != nil {
			t.Fatal("rate 0 sampled")
		}
		s := always.Start("x")
		if s == nil {
			t.Fatal("rate 1 skipped")
		}
		s.End()
		if h := half.Start("x"); h != nil {
			sampled++
			h.End()
		}
	}
	if sampled < n/4 || sampled > 3*n/4 {
		t.Fatalf("rate 0.5 sampled %d of %d", sampled, n)
	}
	// Out-of-range rates clamp rather than misbehave.
	if New(Options{SampleRate: 7, seed: 1}).Start("x") == nil {
		t.Fatal("rate > 1 did not clamp to always")
	}
	if New(Options{SampleRate: -1, seed: 1}).Start("x") != nil {
		t.Fatal("rate < 0 did not clamp to never")
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	// Rate 0: propagated traces must still record (upstream sampled).
	tr := New(Options{SampleRate: 0, ringSize: 8, seed: 3})
	s := tr.StartRemote(TraceID(42), SpanID(7), "server.request")
	if s == nil {
		t.Fatal("StartRemote dropped a propagated trace")
	}
	if s.Trace != 42 || s.Parent != 7 {
		t.Fatalf("remote span links = %+v", s)
	}
	s.End()
	if got := tr.Ring().ByTrace(42); len(got) != 1 {
		t.Fatalf("ring holds %d spans", len(got))
	}
	if tr.StartRemote(0, 0, "x") != nil {
		t.Fatal("zero trace id accepted")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Options{SampleRate: 1, seed: 9})
	s := tr.Start("root")
	ctx := NewContext(context.Background(), s)
	if FromContext(ctx) != s {
		t.Fatal("span lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a span")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx tolerance is the contract
		t.Fatal("nil context produced a span")
	}
}

func TestRingOverwriteAndSeq(t *testing.T) {
	tr := New(Options{SampleRate: 1, ringSize: 4, seed: 5})
	var last *Span
	for i := 0; i < 10; i++ {
		s := tr.Start("s")
		s.End()
		last = s
	}
	snap := tr.Ring().Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	if snap[0] != last {
		t.Fatal("newest span not first")
	}
	if tr.Ring().spans().Added() != 10 {
		t.Fatalf("Added = %d", tr.Ring().spans().Added())
	}
	if snap[0].Seq != 9 {
		t.Fatalf("seq = %d", snap[0].Seq)
	}
}

// TestRingConcurrent hammers the ring from many goroutines; run under
// -race this proves the lock-free publish path.
func TestRingConcurrent(t *testing.T) {
	tr := New(Options{SampleRate: 1, ringSize: 64, seed: 11})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := tr.Start("w", Int("i", int64(i)))
				s.Child("c").End()
				s.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range tr.Ring().Snapshot() {
					_ = s.Duration()
				}
			}
		}
	}()
	wg.Add(-1) // wait for the writers first
	wg.Wait()
	wg.Add(1) // before the reader can see stop and call Done
	close(stop)
	wg.Wait()
	if tr.Ring().spans().Added() != 8*500*2 {
		t.Fatalf("Added = %d", tr.Ring().spans().Added())
	}
}

func TestOnEndHook(t *testing.T) {
	tr := New(Options{SampleRate: 1, seed: 13})
	var mu sync.Mutex
	var seen []string
	tr.SetOnEnd(func(s *Span) {
		mu.Lock()
		seen = append(seen, s.Name)
		mu.Unlock()
	})
	tr.Start("a").End()
	tr.SetOnEnd(nil)
	tr.Start("b").End()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "a" {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestBuildTreeAndSlowestPath(t *testing.T) {
	tr := New(Options{SampleRate: 1, ringSize: 64, seed: 17})
	root := tr.Start("client.send")
	srv := root.Child("server.request")
	// Two completed children with explicit durations: exec slower.
	srv.ChildAt("wal.commit", srv.StartNs, srv.StartNs+100)
	srv.ChildAt("exec.query", srv.StartNs, srv.StartNs+1000, String("table", "t"))
	srv.EndNs = srv.StartNs + 2000
	tr.publish(srv)
	root.EndNs = srv.StartNs + 3000
	tr.publish(root)

	spans := tr.Ring().ByTrace(root.Trace)
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Span != root {
		t.Fatalf("tree roots = %d", len(roots))
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Span.Name != "server.request" {
		t.Fatal("server span not under client span")
	}
	kids := roots[0].Children[0].Children
	if len(kids) != 2 {
		t.Fatalf("server span has %d children", len(kids))
	}
	// Clock sanity: children within parent.
	for _, n := range roots {
		checkClockSanity(t, n, nil)
	}
	path := SlowestPath(roots[0])
	if !path[root.ID] || !path[srv.ID] {
		t.Fatal("slowest path misses trunk")
	}
	var exec, wal *Span
	for _, k := range kids {
		switch k.Span.Name {
		case "exec.query":
			exec = k.Span
		case "wal.commit":
			wal = k.Span
		}
	}
	if !path[exec.ID] || path[wal.ID] {
		t.Fatal("slowest path picked the wrong leaf")
	}

	text := RenderText(roots, path)
	if !strings.Contains(text, "client.send") || !strings.Contains(text, "* ") {
		t.Fatalf("text render:\n%s", text)
	}
	if !strings.Contains(text, "table=t") {
		t.Fatalf("attrs missing from text render:\n%s", text)
	}

	// Orphans (parent aged out) surface as extra roots.
	orphan := &Span{Trace: root.Trace, ID: 999, Parent: 12345, Name: "lost", StartNs: 1, EndNs: 2}
	roots = BuildTree(append(spans, orphan))
	if len(roots) != 2 {
		t.Fatalf("orphan not a root: %d roots", len(roots))
	}
}

func checkClockSanity(t *testing.T, n *Node, parent *Span) {
	t.Helper()
	s := n.Span
	if s.EndNs < s.StartNs {
		t.Errorf("%s: end %d < start %d", s.Name, s.EndNs, s.StartNs)
	}
	if parent != nil {
		if s.StartNs < parent.StartNs || s.EndNs > parent.EndNs {
			t.Errorf("%s: [%d,%d] outside parent %s [%d,%d]",
				s.Name, s.StartNs, s.EndNs, parent.Name, parent.StartNs, parent.EndNs)
		}
	}
	for _, c := range n.Children {
		checkClockSanity(t, c, s)
	}
}

func TestAttrJSON(t *testing.T) {
	attrs := []Attr{
		String("s", "v"), Int("i", -3), Float("f", 1.5), Bool("b", true),
	}
	data, err := json.Marshal(attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"key":"s","value":"v"},{"key":"i","value":-3},{"key":"f","value":1.5},{"key":"b","value":true}]`
	if string(data) != want {
		t.Fatalf("attrs json = %s", data)
	}
	var back []Attr
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range attrs {
		if back[i].Key != attrs[i].Key || back[i].Value() != attrs[i].Value() {
			t.Fatalf("attr %d roundtrip = %+v want %+v", i, back[i], attrs[i])
		}
	}
}

func TestSpanJSONIDsAreHex(t *testing.T) {
	tr := New(Options{SampleRate: 1, seed: 19})
	s := tr.Start("x")
	s.End()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"trace_id":"`+s.Trace.String()+`"`) {
		t.Fatalf("span json lacks hex trace id: %s", data)
	}
}

// TestUnsampledPathAllocatesNothing is the ≈0-overhead proof behind
// BenchmarkTracingOverhead: at sample rate 0 the whole instrumentation
// surface — root sampling, context plumbing, every span method —
// performs zero allocations.
func TestUnsampledPathAllocatesNothing(t *testing.T) {
	tr := New(Options{SampleRate: 0, seed: 23})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Start("q")
		sctx := NewContext(ctx, s)
		got := FromContext(sctx)
		c := got.Child("child")
		c.SetAttr(Int("rows", 1))
		c.End()
		got.ChildAt("done", 1, 2)
		got.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled request allocated %.1f times", allocs)
	}
}

func TestDurations(t *testing.T) {
	tr := New(Options{SampleRate: 1, seed: 29})
	s := tr.Start("x")
	if s.Duration() != 0 {
		t.Fatal("unfinished span has duration")
	}
	s.EndNs = s.StartNs + int64(3*time.Millisecond)
	tr.publish(s)
	if s.Duration() != 3*time.Millisecond {
		t.Fatalf("duration = %s", s.Duration())
	}
}
