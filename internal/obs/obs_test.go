package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"cfpgrowth/internal/mine"
)

// TestNilRecorder exercises every method on a nil receiver: the whole
// point of the nil-receiver convention is that instrumented code never
// branches on "is observability on".
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Add(CtrItemsets, 1)
	if got := r.Count(CtrItemsets); got != 0 {
		t.Errorf("nil Count = %d, want 0", got)
	}
	ctl := &mine.Control{}
	defer r.Bind(ctl)()
	ctl.Alloc(100)
	ctl.Free(50)
	if r.CurBytes() != 0 || r.PeakBytes() != 0 {
		t.Errorf("nil gauges = %d/%d, want 0/0", r.CurBytes(), r.PeakBytes())
	}
	r.ObserveDepth(7)
	if r.MaxDepth() != 0 {
		t.Errorf("nil MaxDepth = %d, want 0", r.MaxDepth())
	}
	sp := r.Start(PhaseMine)
	sp.End() // no-op
	if ph := r.Phases(); ph != nil {
		t.Errorf("nil Phases = %v, want nil", ph)
	}
	if s := r.Snapshot(); s.PeakBytes != 0 || s.Counters != nil {
		t.Errorf("nil Snapshot = %+v, want zero", s)
	}
	r.EmitSummary()
	r.Publish("nil-recorder")

	var zero Span
	zero.End() // zero span is inert
}

func TestCountersAndGauges(t *testing.T) {
	r := New(nil)
	r.Add(CtrStdNodes, 3)
	r.Add(CtrStdNodes, 2)
	if got := r.Count(CtrStdNodes); got != 5 {
		t.Errorf("Count(CtrStdNodes) = %d, want 5", got)
	}
	if got := r.Count(Counter(-1)); got != 0 {
		t.Errorf("Count(-1) = %d, want 0", got)
	}
	var ctl mine.Control
	end := r.Bind(&ctl)
	ctl.Alloc(100)
	ctl.Alloc(200)
	ctl.Free(150)
	if got := r.CurBytes(); got != 150 {
		t.Errorf("CurBytes = %d, want 150", got)
	}
	if got := r.PeakBytes(); got != 300 {
		t.Errorf("PeakBytes = %d, want 300", got)
	}
	ctl.Alloc(50) // cur 200, below peak
	if got := r.PeakBytes(); got != 300 {
		t.Errorf("PeakBytes after sub-peak alloc = %d, want 300", got)
	}
	// A nested Bind leaves the run's ledger in place.
	r.Bind(&mine.Control{})()
	if got := r.CurBytes(); got != 200 {
		t.Errorf("CurBytes after a nested Bind = %d, want the run's 200", got)
	}
	ctl.Free(200)
	end()
	if got := r.CurBytes(); got != 0 {
		t.Errorf("CurBytes after the run = %d, want 0", got)
	}
	// The next run's gauges accumulate over the first's: the peak is
	// the larger of the two.
	var next mine.Control
	end = r.Bind(&next)
	next.Alloc(250)
	if got := r.PeakBytes(); got != 300 {
		t.Errorf("PeakBytes in a smaller second run = %d, want 300", got)
	}
	next.Alloc(250)
	next.Free(500)
	end()
	if got := r.PeakBytes(); got != 500 {
		t.Errorf("PeakBytes after a larger second run = %d, want 500", got)
	}
	r.ObserveDepth(3)
	r.ObserveDepth(1)
	if got := r.MaxDepth(); got != 3 {
		t.Errorf("MaxDepth = %d, want 3", got)
	}
}

// TestPeakMonotoneConcurrent proves the recorder's high-water mark is
// monotone under parallel Alloc/Free: with G goroutines each holding
// at most B bytes live, the peak never exceeds G*B and is at least B.
func TestPeakMonotoneConcurrent(t *testing.T) {
	r := New(nil)
	var ctl mine.Control
	defer r.Bind(&ctl)()
	const goroutines, rounds, chunk = 8, 500, 1 << 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for i := 0; i < rounds; i++ {
				ctl.Alloc(chunk)
				if p := r.PeakBytes(); p < prev {
					t.Errorf("peak regressed: %d after %d", p, prev)
					return
				} else {
					prev = p
				}
				ctl.Free(chunk)
			}
		}()
	}
	wg.Wait()
	if cur := r.CurBytes(); cur != 0 {
		t.Errorf("CurBytes after balanced run = %d, want 0", cur)
	}
	peak := r.PeakBytes()
	if peak < chunk || peak > goroutines*chunk {
		t.Errorf("peak = %d, want within [%d, %d]", peak, chunk, goroutines*chunk)
	}
}

func TestSpansAggregate(t *testing.T) {
	r := New(nil)
	var ctl mine.Control
	defer r.Bind(&ctl)()
	for i := 0; i < 3; i++ {
		sp := r.Start(PhaseMine)
		ctl.Alloc(10)
		sp.End()
	}
	ph := r.Phases()
	ps, ok := ph[PhaseMine]
	if !ok {
		t.Fatalf("no %q phase in %v", PhaseMine, ph)
	}
	if ps.Count != 3 {
		t.Errorf("span count = %d, want 3", ps.Count)
	}
	if ps.Nanos < 0 {
		t.Errorf("negative phase time %d", ps.Nanos)
	}
	if ps.Bytes != 30 {
		t.Errorf("phase bytes delta = %d, want 30", ps.Bytes)
	}
	if ms := ps.Millis(); ms != float64(ps.Nanos)/1e6 {
		t.Errorf("Millis = %v, want %v", ms, float64(ps.Nanos)/1e6)
	}
}

// TestJSONLTrace round-trips a trace through the JSONL sink: every
// line must parse as an Event, span events must carry durations, and
// the final summary must carry the counters.
func TestJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	r := New(NewJSONLSink(&buf))
	sp := r.Start(PhasePass1)
	sp.End()
	sp = r.Start(PhaseMine)
	r.Add(CtrItemsets, 42)
	sp.End()
	r.EmitSummary()

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (2 spans + summary)", len(events))
	}
	if events[0].Ev != "span" || events[0].Name != PhasePass1 {
		t.Errorf("event 0 = %+v, want pass1 span", events[0])
	}
	sum := events[2]
	if sum.Ev != "summary" {
		t.Fatalf("last event = %+v, want summary", sum)
	}
	if sum.Counters["itemsets"] != 42 {
		t.Errorf("summary itemsets = %d, want 42", sum.Counters["itemsets"])
	}
	if len(sum.Phases) != 2 {
		t.Errorf("summary phases = %v, want 2 entries", sum.Phases)
	}
}

func TestCollectSink(t *testing.T) {
	var cs CollectSink
	r := New(&cs)
	sp := r.Start(PhaseConvert)
	sp.End()
	all := cs.All()
	if len(all) != 1 || all[0].Name != PhaseConvert {
		t.Fatalf("collected %v, want one convert span", all)
	}
}

func TestSnapshot(t *testing.T) {
	r := New(nil)
	r.Add(CtrTriples, 7)
	var ctl mine.Control
	defer r.Bind(&ctl)()
	ctl.Alloc(64)
	r.ObserveDepth(2)
	sp := r.Start(PhaseBuild)
	sp.End()
	s := r.Snapshot()
	if s.Counters["triples"] != 7 {
		t.Errorf("snapshot triples = %d, want 7", s.Counters["triples"])
	}
	if _, ok := s.Counters["itemsets"]; ok {
		t.Error("zero counters should be omitted from snapshots")
	}
	if s.CurBytes != 64 || s.PeakBytes != 64 {
		t.Errorf("snapshot bytes = %d/%d, want 64/64", s.CurBytes, s.PeakBytes)
	}
	if s.MaxDepth != 2 {
		t.Errorf("snapshot max depth = %d, want 2", s.MaxDepth)
	}
	if s.UptimeMillis < 0 {
		t.Errorf("negative uptime %v", s.UptimeMillis)
	}
	if _, ok := s.Phases[PhaseBuild]; !ok {
		t.Errorf("snapshot phases = %v, want pass2-build", s.Phases)
	}
}

// TestServe boots the HTTP endpoint on a free port and checks the
// /metrics and /debug/vars payloads.
func TestServe(t *testing.T) {
	r := New(nil)
	r.Add(CtrItemsets, 5)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["itemsets"] != 5 {
		t.Errorf("/metrics itemsets = %d, want 5", snap.Counters["itemsets"])
	}

	resp, err = client.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status = %d", resp.StatusCode)
	}
}
