package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfpgrowth/internal/mine"
)

// TestRecorderStress hammers one Recorder's counters, byte gauges
// (read from the bound run's ledger, whose peak CAS loop races),
// depth maximum, spans, and snapshot reads from GOMAXPROCS goroutines
// at once. It asserts the exact
// final values — the atomics must not lose updates — and under
// `go test -race` (the make check configuration) it doubles as the
// proof that the hot recorder paths are free of plain-field races.
func TestRecorderStress(t *testing.T) {
	rec := New(nil)
	var ctl mine.Control
	defer rec.Bind(&ctl)()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const iters = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec.Add(CtrItemsets, 1)
				rec.Add(CtrCondTrees, 2)
				// Balanced alloc/free pairs: cur returns to 0, while
				// the racing peak CAS must observe at least one
				// worker's live allocation.
				ctl.Alloc(64)
				rec.ObserveDepth(w*iters + i)
				sp := rec.Start(PhaseMine)
				sp.End()
				ctl.Free(64)
				if i%256 == 0 {
					// Concurrent readers must not perturb the counts.
					_ = rec.Snapshot()
					_ = rec.CurBytes()
					_ = rec.PeakBytes()
				}
			}
		}()
	}
	wg.Wait()

	total := int64(workers * iters)
	if got := rec.Count(CtrItemsets); got != total {
		t.Errorf("CtrItemsets = %d, want %d (lost atomic updates)", got, total)
	}
	if got := rec.Count(CtrCondTrees); got != 2*total {
		t.Errorf("CtrCondTrees = %d, want %d", got, 2*total)
	}
	if got := rec.CurBytes(); got != 0 {
		t.Errorf("CurBytes = %d after balanced alloc/free, want 0", got)
	}
	if got := rec.PeakBytes(); got < 64 || got > int64(workers)*64 {
		t.Errorf("PeakBytes = %d, want within [64, %d]", got, workers*64)
	}
	wantDepth := int64(workers*iters - 1)
	if got := rec.MaxDepth(); got != wantDepth {
		t.Errorf("MaxDepth = %d, want %d (CAS loop lost the maximum)", got, wantDepth)
	}
	if got := rec.Phases()[PhaseMine].Count; got != total {
		t.Errorf("PhaseMine span count = %d, want %d", got, total)
	}
}

// TestRecorderGaugesReadConcurrently reads every gauge and counter
// while other goroutines update them. Under -race, a plain load of a
// field that is written atomically is reported; the typed atomics make
// every access atomic, and 64-bit aligned on 32-bit platforms.
func TestRecorderGaugesReadConcurrently(t *testing.T) {
	rec := New(nil)
	var ctl mine.Control
	defer rec.Bind(&ctl)()
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec.ObserveDepth(w*iters + i)
				ctl.Alloc(8)
				ctl.Free(8)
				rec.Add(CtrItemsets, 1)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = rec.MaxDepth() + rec.PeakBytes() + rec.CurBytes() + rec.Count(CtrItemsets)
			}
		}()
	}
	wg.Wait()
	if got := rec.MaxDepth(); got != 4*iters-1 {
		t.Errorf("MaxDepth = %d, want %d", got, 4*iters-1)
	}
	if got := rec.Count(CtrItemsets); got != 4*iters {
		t.Errorf("CtrItemsets = %d, want %d", got, 4*iters)
	}
}

// readBackSink reads the recorder's snapshot from inside Record, as a
// live exporter may.
type readBackSink struct {
	rec    *Recorder
	events atomic.Int64
}

func (s *readBackSink) Record(Event) {
	_ = s.rec.Snapshot()
	s.events.Add(1)
}

// TestSinkMayReadRecorder: span End, EmitSummary and the sampler call
// the event sink with no recorder lock held, so a sink that reads the
// recorder back cannot deadlock. The watchdog turns a deadlock into a
// failure within seconds.
func TestSinkMayReadRecorder(t *testing.T) {
	sink := &readBackSink{}
	rec := New(sink)
	sink.rec = rec
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := rec.StartSampler(time.Millisecond)
		for i := 0; i < 100; i++ {
			rec.Start(PhaseMine).End()
		}
		rec.EmitSummary()
		s.Stop()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("span End, EmitSummary or the sampler still blocked after 5 s: deadlock on the recorder lock")
	}
	// 100 spans, one summary and at least the sampler's final sample.
	if n := sink.events.Load(); n < 102 {
		t.Errorf("sink saw %d events, want at least 102", n)
	}
}

// TestHotRecordingDoesNotAllocate: the recorder calls made once per
// conditional subproblem allocate nothing.
func TestHotRecordingDoesNotAllocate(t *testing.T) {
	rec := New(nil)
	t0 := time.Now()
	for name, fn := range map[string]func(){
		"Histogram.Record":      func() { rec.Histogram(HistCondMine).Record(time.Millisecond) },
		"Recorder.ObserveSince": func() { rec.ObserveSince(HistQuery, t0) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, got)
		}
	}
}
