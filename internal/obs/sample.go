package obs

import (
	"runtime"
	"time"
)

// Sampler is a background goroutine polling the Go runtime —
// heap-in-use, goroutine count, GC cycle and pause totals — into the
// recorder at a fixed interval: each tick updates the recorder's
// runtime gauges (visible in Snapshot, /metrics, and the Prometheus
// endpoint) and, when an event sink is attached, appends one "sample"
// event to the stream. Long runs (the soak test, a future serve
// daemon) get a runtime-health time series alongside the phase spans.
type Sampler struct {
	rec  *Recorder
	stop chan struct{}
	done chan struct{}
}

// StartSampler starts polling every interval (minimum 1ms; a zero or
// negative interval is clamped to 100ms). A nil recorder returns a nil
// sampler, whose Stop is a no-op. Callers own the sampler's lifetime:
// Stop joins the goroutine, taking one final sample first so even a
// sub-interval run records at least one.
func (r *Recorder) StartSampler(interval time.Duration) *Sampler {
	if r == nil {
		return nil
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	s := &Sampler{rec: r, stop: make(chan struct{}), done: make(chan struct{})}
	// The join lives in Stop, not in this function's scope: Stop closes
	// s.stop and then blocks on <-s.done, which this goroutine closes on
	// exit — callers own the sampler's lifetime.
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.sample()
			case <-s.stop:
				r.sample()
				return
			}
		}
	}()
	return s
}

// Stop takes a final sample and joins the sampling goroutine. Safe to
// call on a nil sampler, and exactly once otherwise.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// sample reads the runtime and folds one observation into the
// recorder. ReadMemStats stops the world briefly, which bounds the
// sane sampling rate to tens of hertz — the clamp in StartSampler.
func (r *Recorder) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes.Store(int64(ms.HeapAlloc))
	r.goroutines.Store(int64(runtime.NumGoroutine()))
	r.numGC.Store(int64(ms.NumGC))
	r.gcPauseNanos.Store(int64(ms.PauseTotalNs))
	r.samples.Add(1)
	r.mu.Lock()
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.Record(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Ev:           "sample",
			CurBytes:     r.curBytes.Load(),
			PeakBytes:    r.peakBytes.Load(),
			HeapBytes:    ms.HeapAlloc,
			Goroutines:   runtime.NumGoroutine(),
			NumGC:        ms.NumGC,
			GCPauseNanos: ms.PauseTotalNs,
		})
	}
}

// RuntimeStat is the sampler's latest runtime observation, shaped for
// JSON export inside Snapshot.
type RuntimeStat struct {
	Samples      int64 `json:"samples"`
	HeapBytes    int64 `json:"heap_bytes"`
	Goroutines   int64 `json:"goroutines"`
	NumGC        int64 `json:"num_gc"`
	GCPauseNanos int64 `json:"gc_pause_ns"`
}
