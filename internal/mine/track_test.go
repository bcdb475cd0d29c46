package mine

import (
	"sync"
	"testing"
)

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
	if c.Bytes() != 0 || c.PeakBytes() != 0 {
		t.Errorf("nil ledger = %d/%d, want 0/0", c.Bytes(), c.PeakBytes())
	}
}

// TestControlPeakMonotoneConcurrent is the satellite-task proof: under
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
// after each update, the same figure with or without a MaxBytes
// budget, and a Control used as a MemTracker maintains its peak and
// balance without one.
func TestControlAvgBytes(t *testing.T) {
	var c Control
	var track MemTracker = &c
	if c.AvgBytes() != 0 {
		t.Errorf("initial average = %d, want 0", c.AvgBytes())
	}
	track.Alloc(1000) // 1000
	track.Free(400)   // 600
	track.Alloc(100)  // 700
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
