package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func virtualRecorder(step time.Duration) *Recorder {
	return NewRecorder(Config{
		Clock: NewVirtualClock(time.Unix(1000, 0), step),
	})
}

func TestSpanNestingAndDurations(t *testing.T) {
	rec := virtualRecorder(time.Millisecond)
	ctx, root := rec.StartSpan(context.Background(), "root")
	ctx2, child := StartSpan(ctx, "child")
	_, grand := StartSpan(ctx2, "grandchild")

	if child.ParentID() != root.ID() {
		t.Fatalf("child parent = %d, want %d", child.ParentID(), root.ID())
	}
	if grand.ParentID() != child.ID() {
		t.Fatalf("grandchild parent = %d, want %d", grand.ParentID(), child.ID())
	}
	grand.End()
	child.End()
	root.End()

	if got := rec.SpanCount(); got != 3 {
		t.Fatalf("recorded %d spans, want 3", got)
	}
	// Virtual clock auto-steps 1ms per read: every duration is a positive
	// multiple of the step, and parents span their children.
	for _, sp := range rec.Spans() {
		d := sp.Duration()
		if d <= 0 || d%time.Millisecond != 0 {
			t.Errorf("span %s duration %s not a positive multiple of the virtual step", sp.Name(), d)
		}
	}
	if root.StartTime().After(grand.StartTime()) || root.EndTime().Before(grand.EndTime()) {
		t.Error("root span does not cover its grandchild")
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	ctx, sp := rec.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil recorder produced a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil recorder attached to context")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.End()
	sp.EndErr(fmt.Errorf("boom"))
	if sp.Duration() != 0 || sp.Name() != "" || sp.ID() != 0 {
		t.Fatal("nil span returned non-zero values")
	}
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(1)
	if reg.CounterValue("c") != 0 || reg.Snapshot() != nil {
		t.Fatal("nil registry returned data")
	}
	if rec.SpanCount() != 0 || rec.Spans() != nil || rec.Metrics() != nil {
		t.Fatal("nil recorder returned data")
	}
	if rec.Now().IsZero() {
		t.Fatal("nil recorder clock returned zero time")
	}
	ctx2, sp2 := StartSpan(context.Background(), "no-recorder")
	if sp2 != nil || ctx2 == nil {
		t.Fatal("StartSpan without recorder must return (ctx, nil)")
	}
}

func TestRecorderBound(t *testing.T) {
	rec := NewRecorder(Config{Clock: NewVirtualClock(time.Unix(0, 0), time.Microsecond), MaxSpans: 4})
	for i := 0; i < 10; i++ {
		_, sp := rec.StartSpan(context.Background(), "s")
		sp.End()
	}
	if rec.SpanCount() != 4 {
		t.Fatalf("recorded %d spans, want bound of 4", rec.SpanCount())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
	tr := rec.ChromeTrace()
	if tr.DroppedSpans != 6 {
		t.Fatalf("export dropped = %d, want 6", tr.DroppedSpans)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cloud.api_calls", "type", "aws_vpc").Add(3)
	reg.Counter("cloud.api_calls", "type", "aws_subnet").Add(2)
	// Label order must not matter.
	reg.Counter("x", "b", "2", "a", "1").Inc()
	reg.Counter("x", "a", "1", "b", "2").Inc()
	if got := reg.CounterValue("x", "a", "1", "b", "2"); got != 2 {
		t.Fatalf("label-order-insensitive counter = %d, want 2", got)
	}
	if got := reg.CounterSum("cloud.api_calls"); got != 5 {
		t.Fatalf("CounterSum = %d, want 5", got)
	}
	reg.Gauge("plan.graph_size").Set(42)
	if reg.Gauge("plan.graph_size").Value() != 42 {
		t.Fatal("gauge set/read failed")
	}

	h := reg.Histogram("lock_wait")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("histogram count/sum = %d/%f", h.Count(), h.Sum())
	}
	if p50 := h.Quantile(0.5); p50 != 50 {
		t.Fatalf("p50 = %f, want 50", p50)
	}
	if p95 := h.Quantile(0.95); p95 != 95 {
		t.Fatalf("p95 = %f, want 95", p95)
	}

	snap := reg.Snapshot()
	var found bool
	for _, mp := range snap {
		if mp.Name == "lock_wait" && mp.Kind == "histogram" {
			found = true
			if mp.P95 != 95 || mp.Min != 1 || mp.Max != 100 {
				t.Fatalf("snapshot histogram fields wrong: %+v", mp)
			}
		}
	}
	if !found {
		t.Fatal("histogram missing from snapshot")
	}
}

func TestHistogramRingBound(t *testing.T) {
	h := newHistogram()
	for i := 0; i < histogramSamples*2; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != int64(histogramSamples*2) {
		t.Fatalf("count = %d", h.Count())
	}
	if len(h.samples) != histogramSamples {
		t.Fatalf("retained %d samples, want %d", len(h.samples), histogramSamples)
	}
}

func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ctx, sp := rec.StartSpan(context.Background(), "op")
				_, inner := StartSpan(ctx, "inner")
				rec.Metrics().Counter("n").Inc()
				rec.Metrics().Histogram("h").Observe(float64(i))
				inner.End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if rec.SpanCount() != 3200 {
		t.Fatalf("span count = %d, want 3200", rec.SpanCount())
	}
	if rec.Metrics().CounterValue("n") != 1600 {
		t.Fatalf("counter = %d, want 1600", rec.Metrics().CounterValue("n"))
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := virtualRecorder(time.Millisecond)
	ctx, root := rec.StartSpan(context.Background(), "lifecycle.apply")
	_, op1 := StartSpan(ctx, "apply.op")
	op1.SetAttr("addr", "aws_vpc.main")
	op1.SetAttr(criticalPathAttr, true)
	op1.End()
	_, op2 := StartSpan(ctx, "apply.op")
	op2.SetAttr("password", Redacted)
	op2.End()
	root.End()

	var buf strings.Builder
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Must be valid JSON in Chrome trace-event object form.
	var parsed map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %s", err)
	}
	events, ok := parsed["traceEvents"].([]any)
	if !ok || len(events) != 3 {
		t.Fatalf("traceEvents missing or wrong length: %v", parsed["traceEvents"])
	}
	tr := rec.ChromeTrace()
	var critFound bool
	for _, ev := range tr.TraceEvents {
		if ev.Phase != "X" {
			t.Errorf("unexpected phase %q", ev.Phase)
		}
		if ev.Dur <= 0 {
			t.Errorf("event %s has non-positive duration", ev.Name)
		}
		if ev.CName == "terrible" {
			critFound = true
		}
	}
	if !critFound {
		t.Error("critical-path span not color-marked")
	}

	// Round trip through a file and summarize.
	path := t.TempDir() + "/trace.json"
	if err := rec.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.TraceEvents) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(rt.TraceEvents))
	}
	stats := TraceSummary(rt)
	if len(stats) != 2 {
		t.Fatalf("summary groups = %d, want 2", len(stats))
	}
	if stats[0].Name != "lifecycle.apply" {
		t.Fatalf("summary not sorted by total time: %+v", stats)
	}
}

func TestLaneAssignmentNesting(t *testing.T) {
	rec := virtualRecorder(0) // manual clock
	clk := rec.clock.(*VirtualClock)
	ctx, root := rec.StartSpan(context.Background(), "root")
	clk.Advance(time.Millisecond)
	// Two overlapping children.
	_, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx, "b")
	clk.Advance(time.Millisecond)
	a.End()
	b.End()
	clk.Advance(time.Millisecond)
	// A child starting after both ended: can share a lane.
	_, c := StartSpan(ctx, "c")
	clk.Advance(time.Millisecond)
	c.End()
	clk.Advance(time.Millisecond)
	root.End()

	tr := rec.ChromeTrace()
	tidOf := map[string]int{}
	for _, ev := range tr.TraceEvents {
		tidOf[ev.Name] = ev.TID
	}
	if tidOf["a"] == tidOf["b"] {
		t.Errorf("overlapping siblings share lane %d", tidOf["a"])
	}
	if tidOf["a"] != tidOf["root"] && tidOf["b"] != tidOf["root"] {
		t.Error("no child nested in the root lane")
	}
}

func TestSpanAttrTruncationAndRedaction(t *testing.T) {
	rec := virtualRecorder(time.Microsecond)
	_, sp := rec.StartSpan(context.Background(), "s")
	long := strings.Repeat("x", 2*maxAttrLen)
	sp.SetAttr("big", long)
	sp.SetAttr("secret", Redacted)
	sp.End()
	got := sp.Attr("big").(string)
	if len(got) > maxAttrLen+3 {
		t.Fatalf("attribute not truncated: %d bytes", len(got))
	}
	if sp.Attr("secret") != "(sensitive)" {
		t.Fatalf("redaction marker = %v", sp.Attr("secret"))
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	rec := virtualRecorder(time.Millisecond)
	_, sp := rec.StartSpan(context.Background(), "s")
	sp.End()
	end := sp.EndTime()
	sp.End()
	if !sp.EndTime().Equal(end) {
		t.Fatal("second End moved the end time")
	}
	if rec.SpanCount() != 1 {
		t.Fatalf("span recorded %d times", rec.SpanCount())
	}
}

// TestVirtualClockAfter: After channels fire in deadline order once Advance
// reaches them, Advance reports what is still pending, and BlockUntil
// returns once a goroutine has armed a wait.
func TestVirtualClockAfter(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := NewVirtualClock(start, 0)
	if got := <-clk.After(0); !got.Equal(start) {
		t.Fatalf("After(0) = %v, want %v at once", got, start)
	}
	late, early := clk.After(2*time.Second), clk.After(time.Second)
	if n := clk.Advance(time.Second); n != 1 {
		t.Fatalf("pending after 1s = %d, want 1", n)
	}
	if got := <-early; !got.Equal(start.Add(time.Second)) {
		t.Fatalf("early fired at %v", got)
	}
	select {
	case <-late:
		t.Fatal("late fired before its deadline")
	default:
	}
	if n := clk.Advance(time.Hour); n != 0 || clk.Waiters() != 0 {
		t.Fatalf("pending after 1h = %d, want 0", n)
	}
	<-late

	fired := make(chan time.Time)
	go func() { fired <- <-clk.After(time.Minute) }()
	clk.BlockUntil(1)
	clk.Advance(time.Minute)
	if got := <-fired; !got.Equal(start.Add(time.Second + time.Hour + time.Minute)) {
		t.Fatalf("parked waiter fired at %v", got)
	}
}
