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
