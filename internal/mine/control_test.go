package mine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestControlNilSafe(t *testing.T) {
	var c *Control
	if c.Err() != nil || c.Stopped() {
		t.Error("nil control reports stopped")
	}
	if c.Stop(errors.New("x")) {
		t.Error("nil control accepted Stop")
	}
	c.Alloc(100)
	c.Free(100)
	c.Probe(1 << 40)
	release := c.Watch(context.Background())
	release()
}

func TestControlFirstStopWins(t *testing.T) {
	var c Control
	first := errors.New("first")
	if !c.Stop(first) {
		t.Fatal("first Stop did not win")
	}
	if c.Stop(errors.New("second")) {
		t.Error("second Stop won")
	}
	if err := c.Err(); err != first {
		t.Errorf("Err() = %v, want the first cause", err)
	}
	if !c.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestControlConcurrentStopOneWinner(t *testing.T) {
	var c Control
	var wins sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := errors.New("cause")
			if c.Stop(err) {
				wins.Store(i, err)
			}
		}(i)
	}
	wg.Wait()
	var n int
	var winner error
	wins.Range(func(_, v any) bool { n++; winner = v.(error); return true })
	if n != 1 {
		t.Fatalf("%d Stop calls won, want exactly 1", n)
	}
	if c.Err() != winner {
		t.Error("Err() is not the winner's cause")
	}
}

func TestControlBudget(t *testing.T) {
	c := Control{MaxBytes: 1000}
	c.Alloc(600)
	c.Free(200)
	c.Alloc(500) // 900 total: still inside
	if c.Err() != nil {
		t.Fatalf("stopped inside budget: %v", c.Err())
	}
	c.Alloc(200) // 1100: over
	if err := c.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err() = %v, want ErrBudgetExceeded", err)
	}
}

func TestControlProbe(t *testing.T) {
	c := Control{MaxBytes: 1000}
	c.Alloc(400)
	c.Probe(500) // 900: fine, and not charged
	if c.Err() != nil {
		t.Fatalf("Probe inside budget stopped the run: %v", c.Err())
	}
	c.Probe(700) // 1100: over
	if !errors.Is(c.Err(), ErrBudgetExceeded) {
		t.Fatalf("Err() = %v, want ErrBudgetExceeded", c.Err())
	}
}

func TestControlNoBudgetNeverStops(t *testing.T) {
	var c Control // MaxBytes 0 = unlimited
	c.Alloc(1 << 50)
	c.Probe(1 << 50)
	if c.Err() != nil {
		t.Errorf("unlimited control stopped: %v", c.Err())
	}
}

func TestWatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c Control
	release := c.Watch(ctx)
	defer release()
	// Pre-canceled contexts must stop synchronously, before Watch returns.
	if err := c.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", err)
	}
}

func TestWatchCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var c Control
	release := c.Watch(ctx)
	defer release()
	if c.Err() != nil {
		t.Fatalf("stopped before cancel: %v", c.Err())
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("control not stopped after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.Err(), ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", c.Err())
	}
}

func TestWatchReleaseStopsWatcher(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var c Control
	release := c.Watch(ctx)
	release() // run over; watcher must exit
	cancel()  // late cancellation must not stop the control
	time.Sleep(10 * time.Millisecond)
	if c.Err() != nil {
		t.Errorf("canceled after release still stopped the control: %v", c.Err())
	}
}

func TestControlSinkStopsAfterError(t *testing.T) {
	var c Control
	var inner CountSink
	s := ControlSink{Inner: &inner, Ctl: &c}
	if err := s.Emit([]uint32{1}, 5); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	c.Stop(boom)
	if err := s.Emit([]uint32{2}, 5); err != boom {
		t.Fatalf("Emit after stop = %v, want the stop cause", err)
	}
	if inner.N != 1 {
		t.Errorf("inner saw %d emissions, want 1", inner.N)
	}
}

func TestControlSinkInnerErrorStopsControl(t *testing.T) {
	var c Control
	boom := errors.New("boom")
	s := ControlSink{Inner: failSink{boom}, Ctl: &c}
	if err := s.Emit([]uint32{1}, 5); err != boom {
		t.Fatalf("Emit = %v, want the sink error", err)
	}
	if c.Err() != boom {
		t.Fatalf("control cause = %v, want the sink error", c.Err())
	}
}

func TestControlSinkMaxItemsets(t *testing.T) {
	var c Control
	var inner CountSink
	s := ControlSink{Inner: &inner, Ctl: &c, Max: 3}
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = s.Emit([]uint32{uint32(i)}, 1)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Emit = %v, want ErrBudgetExceeded", err)
	}
	if inner.N != 3 {
		t.Errorf("inner saw %d emissions, want exactly Max=3", inner.N)
	}
	if !errors.Is(c.Err(), ErrBudgetExceeded) {
		t.Errorf("control not stopped: %v", c.Err())
	}
}

type failSink struct{ err error }

func (s failSink) Emit([]uint32, uint64) error { return s.err }

// TestControlPeakBytes checks the Alloc/Free ledger's high-water
// mark: it follows the maximum, not the balance, and never decreases.
func TestControlPeakBytes(t *testing.T) {
	var c Control
	if c.PeakBytes() != 0 {
		t.Errorf("initial peak = %d, want 0", c.PeakBytes())
	}
	c.Alloc(100)
	c.Alloc(200)
	if got := c.PeakBytes(); got != 300 {
		t.Errorf("peak = %d, want 300", got)
	}
	c.Free(250)
	if got := c.Bytes(); got != 50 {
		t.Errorf("balance = %d, want 50", got)
	}
	if got := c.PeakBytes(); got != 300 {
		t.Errorf("peak after release = %d, want 300 (monotone)", got)
	}
	c.Alloc(100) // balance 150, still below peak
	if got := c.PeakBytes(); got != 300 {
		t.Errorf("peak after sub-peak charge = %d, want 300", got)
	}
}

// TestControlPeakBytesNil: the ledger methods are nil-safe like every
// other Control method.
func TestControlPeakBytesNil(t *testing.T) {
	var c *Control
	c.Alloc(10)
	c.Free(10)
	if c.Bytes() != 0 || c.PeakBytes() != 0 || c.TotalAlloc() != 0 {
		t.Errorf("nil ledger = %d/%d/%d, want 0/0/0", c.Bytes(), c.PeakBytes(), c.TotalAlloc())
	}
}

// TestControlPeakMonotoneConcurrent: under
// parallel Alloc/Free the peak observed by any goroutine never
// regresses, and the final peak is bounded by the maximum possible
// simultaneous footprint.
func TestControlPeakMonotoneConcurrent(t *testing.T) {
	var c Control
	const goroutines, rounds, chunk = 8, 1000, 512
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for i := 0; i < rounds; i++ {
				c.Alloc(chunk)
				p := c.PeakBytes()
				if p < prev {
					t.Errorf("peak regressed: %d after %d", p, prev)
					return
				}
				prev = p
				c.Free(chunk)
			}
		}()
	}
	wg.Wait()
	if got := c.Bytes(); got != 0 {
		t.Errorf("balance after balanced run = %d, want 0", got)
	}
	peak := c.PeakBytes()
	if peak < chunk || peak > goroutines*chunk {
		t.Errorf("peak = %d, want within [%d, %d]", peak, chunk, goroutines*chunk)
	}
}

// TestControlAvgBytes: the ledger's average is the mean footprint
// after each update, and a Control without a MaxBytes budget maintains
// its peak and balance and never stops.
func TestControlAvgBytes(t *testing.T) {
	var c Control
	if c.AvgBytes() != 0 {
		t.Errorf("initial average = %d, want 0", c.AvgBytes())
	}
	c.Alloc(1000) // 1000
	c.Free(400)   // 600
	c.Alloc(100)  // 700
	if got := c.PeakBytes(); got != 1000 {
		t.Errorf("peak = %d, want 1000", got)
	}
	if got := c.Bytes(); got != 700 {
		t.Errorf("balance = %d, want 700", got)
	}
	if got := c.AvgBytes(); got != (1000+600+700)/3 {
		t.Errorf("average = %d, want %d", got, (1000+600+700)/3)
	}
	if c.Err() != nil {
		t.Errorf("no budget set, but control stopped: %v", c.Err())
	}
	var nilCtl *Control
	if nilCtl.AvgBytes() != 0 {
		t.Error("nil control reports an average")
	}
}

// TestControlTotalAlloc: the allocated total sums every Alloc and
// ignores Free, so it never decreases while the balance falls.
func TestControlTotalAlloc(t *testing.T) {
	var c Control
	prev := c.TotalAlloc()
	for i, step := range []struct {
		alloc bool
		n     int64
	}{{true, 100}, {false, 60}, {true, 30}, {false, 70}, {true, 5}} {
		if step.alloc {
			c.Alloc(step.n)
		} else {
			c.Free(step.n)
		}
		if got := c.TotalAlloc(); got < prev {
			t.Fatalf("step %d: total %d fell below %d", i, got, prev)
		}
		prev = c.TotalAlloc()
	}
	if prev != 135 {
		t.Errorf("total = %d, want 135", prev)
	}
	if got := c.Bytes(); got != 5 {
		t.Errorf("balance = %d, want 5", got)
	}
}

// TestControlTotalAllocConcurrent: under parallel Alloc/Free the
// allocated total is exact, every goroutine reads it rising, and the
// balance returns to zero.
func TestControlTotalAllocConcurrent(t *testing.T) {
	var c Control
	const goroutines, rounds, chunk = 8, 1000, 512
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for i := 0; i < rounds; i++ {
				c.Alloc(chunk)
				c.Free(chunk)
				got := c.TotalAlloc()
				if got < prev+chunk {
					t.Errorf("total %d after %d and one more Alloc of %d", got, prev, chunk)
					return
				}
				prev = got
			}
		}()
	}
	wg.Wait()
	if got, want := c.TotalAlloc(), int64(goroutines*rounds*chunk); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	if got := c.Bytes(); got != 0 {
		t.Errorf("balance = %d, want 0", got)
	}
}
