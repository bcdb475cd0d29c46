package mine

// MemTracker observes the modeled memory footprint of a miner's data
// structures as they are allocated and released. Implementations
// compute peak/average consumption (Figs 7(b), 7(d), 8(b)) and feed the
// virtual-memory cost model that reproduces the paper's out-of-core
// degradation (internal/vm).
//
// Sizes are the *modeled* physical footprints of the paper's C layouts
// (e.g. 40 bytes per baseline FP-tree node, the exact compressed byte
// counts for CFP structures), not Go heap sizes; this keeps the
// reproduction comparable to the paper's measurements and independent
// of Go runtime overhead.
//
// A run's one byte ledger is its *Control; a miner charges a tracker
// of its own only when its caller supplies one (Ledger).
type MemTracker interface {
	// Alloc records that n bytes of structure memory came into use.
	Alloc(n int64)
	// Free records that n bytes were released.
	Free(n int64)
}

// NullTracker discards all observations.
type NullTracker struct{}

// Alloc implements MemTracker.
func (NullTracker) Alloc(int64) {}

// Free implements MemTracker.
func (NullTracker) Free(int64) {}

// Ledger returns the tracker a miner charges: track when the caller set
// one (a cost model such as vm.Tracker), otherwise the run's Control,
// whose ledger is then the run's one byte count. With neither, nothing
// is counted.
func Ledger(track MemTracker, ctl *Control) MemTracker {
	switch {
	case track != nil:
		return track
	case ctl != nil:
		return ctl
	}
	return NullTracker{}
}
