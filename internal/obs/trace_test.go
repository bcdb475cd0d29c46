package obs

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTraceChromeRoundTrip drives the full span hierarchy through the
// Chrome trace-event exporter and back: a traced run's phase span with
// per-item children on several workers must serialize to well-formed
// JSON that parses into the same spans, with unique ids, resolving
// parent links, temporal nesting, and monotonic start timestamps.
func TestTraceChromeRoundTrip(t *testing.T) {
	rec := New(nil)
	tr := NewTrace(4, 1024)
	rec.AttachTrace(tr)

	sp := rec.Start(PhaseMine)
	for w := 0; w < 4; w++ {
		for i := 0; i < 8; i++ {
			csp := rec.StartChild(sp, "mine-item").WithWorker(w).
				With("shard", int64(w)).With("rank", int64(i))
			time.Sleep(50 * time.Microsecond)
			csp.End()
		}
	}
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if want := 1 + 4*8; len(spans) != want {
		t.Fatalf("parsed %d spans, want %d", len(spans), want)
	}

	var root *ChromeSpan
	children := 0
	for i := range spans {
		s := &spans[i]
		if s.Name == string(rune(0)) {
			t.Fatalf("span %d has garbage name", i)
		}
		if s.Parent == 0 {
			if root != nil {
				t.Fatalf("two roots: %q and %q", root.Name, s.Name)
			}
			root = s
			continue
		}
		children++
		if s.Name != "mine-item" {
			t.Errorf("child name = %q", s.Name)
		}
		if s.Args["shard"] != s.Worker || s.Args["rank"] < 0 || s.Args["rank"] > 7 {
			t.Errorf("child args = %v (worker %d)", s.Args, s.Worker)
		}
	}
	if root == nil || root.Name != PhaseMine {
		t.Fatalf("root = %+v, want the %s phase span", root, PhaseMine)
	}
	if children != 32 {
		t.Errorf("children = %d, want 32", children)
	}
	// Every child's parent link resolves to the root (ParseChromeTrace
	// already verified temporal containment).
	for _, s := range spans {
		if s.Parent != 0 && s.Parent != root.ID {
			t.Errorf("span %d parent = %d, want root %d", s.ID, s.Parent, root.ID)
		}
	}
	// Events/ParseChromeTrace sort by start: timestamps are monotonic.
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNanos < spans[i-1].StartNanos {
			t.Fatalf("timestamps not monotonic at %d: %d after %d",
				i, spans[i].StartNanos, spans[i-1].StartNanos)
		}
	}
}

// TestTraceRingOverwrite fills a tiny ring past capacity: the newest
// events survive, the loss is counted, and the export still parses
// (orphaned children whose parent was overwritten are tolerated).
func TestTraceRingOverwrite(t *testing.T) {
	rec := New(nil)
	tr := NewTrace(1, 16)
	rec.AttachTrace(tr)
	sp := rec.Start(PhaseMine)
	const items = 100
	for i := 0; i < items; i++ {
		csp := rec.StartChild(sp, "mine-item").With("rank", int64(i))
		csp.End()
	}
	sp.End()
	evs, dropped := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("kept %d events, want ring capacity 16", len(evs))
	}
	if want := int64(items + 1 - 16); dropped != want {
		t.Errorf("dropped = %d, want %d", dropped, want)
	}
	// The newest writes won the ring: the parent (recorded last, at its
	// End) plus the highest-ranked children; the early children are gone.
	haveParent := false
	for _, ev := range evs {
		if ev.Name == PhaseMine {
			haveParent = true
			continue
		}
		if rank := ev.Attrs[0].Val; rank < items-15 {
			t.Errorf("stale child rank %d survived the overwrite", rank)
		}
	}
	if !haveParent {
		t.Error("parent span (newest write) missing from the ring")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("wrapped trace no longer parses: %v", err)
	}
}

// TestTraceConcurrentWorkers records children from GOMAXPROCS
// goroutines, each into its own ring, as the sharded mine does; every
// event must survive (no ring is shared, so none can wrap) and the
// export must parse with all span ids unique.
func TestTraceConcurrentWorkers(t *testing.T) {
	rec := New(nil)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 500
	tr := NewTrace(workers, perWorker)
	rec.AttachTrace(tr)
	sp := rec.Start(PhaseMine)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker-1; i++ {
				csp := rec.StartChild(sp, "mine-item").WithWorker(w)
				csp.End()
			}
		}()
	}
	wg.Wait()
	sp.End()
	evs, dropped := tr.Events()
	if want := workers*(perWorker-1) + 1; len(evs) != want || dropped != 0 {
		t.Fatalf("events = %d dropped = %d, want %d and 0", len(evs), dropped, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("concurrent trace invalid: %v", err)
	}
}

// TestStartChildInertWithoutTrace pins the fast path: without an
// attached trace StartChild returns the zero span, whose End and
// builders are no-ops, and no phase aggregate is touched (children are
// trace-only and must never distort the phase sums the bench validator
// checks).
func TestStartChildInertWithoutTrace(t *testing.T) {
	rec := New(nil)
	sp := rec.Start(PhaseMine)
	csp := rec.StartChild(sp, "mine-item").WithWorker(1).With("rank", 3)
	if csp != (Span{}) {
		t.Fatalf("StartChild without trace = %+v, want zero span", csp)
	}
	csp.End()
	sp.End()
	snap := rec.Snapshot()
	if ps := snap.Phases[PhaseMine]; ps.Count != 1 {
		t.Errorf("mine phase count = %d, want 1 (children must not fold in)", ps.Count)
	}

	// With a trace attached, children still stay out of the aggregates.
	rec2 := New(nil)
	rec2.AttachTrace(NewTrace(1, 64))
	sp2 := rec2.Start(PhaseMine)
	for i := 0; i < 5; i++ {
		c := rec2.StartChild(sp2, "mine-item")
		c.End()
	}
	sp2.End()
	if ps := rec2.Snapshot().Phases[PhaseMine]; ps.Count != 1 {
		t.Errorf("traced mine phase count = %d, want 1", ps.Count)
	}

	var nilRec *Recorder
	nsp := nilRec.StartChild(Span{}, "x") // must not panic
	nsp.End()
	nilRec.AttachTrace(nil) // must not panic
}

// TestParseChromeTraceRejects feeds the parser malformed traces; each
// must fail with a structural error rather than round-tripping.
func TestParseChromeTraceRejects(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"not-json", `{"traceEvents": [`},
		{"wrong-phase", `{"traceEvents":[{"name":"x","ph":"B","ts":1,"dur":1,"args":{"span":1}}]}`},
		{"negative-dur", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-5,"args":{"span":1}}]}`},
		{"empty-name", `{"traceEvents":[{"name":"","ph":"X","ts":1,"dur":1,"args":{"span":1}}]}`},
		{"missing-span-id", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":1,"args":{}}]}`},
		{"duplicate-id", `{"traceEvents":[
			{"name":"x","ph":"X","ts":1,"dur":1,"args":{"span":7}},
			{"name":"y","ph":"X","ts":2,"dur":1,"args":{"span":7}}]}`},
		{"child-escapes-parent", `{"traceEvents":[
			{"name":"p","ph":"X","ts":100,"dur":10,"args":{"span":1}},
			{"name":"c","ph":"X","ts":105,"dur":50,"args":{"span":2,"parent":1}}]}`},
	} {
		if _, err := ParseChromeTrace([]byte(tc.body)); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}
