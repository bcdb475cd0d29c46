// Package ledger exercises ledgerbalance: balance violations across
// return paths, the PR-6 charge-outside-span bug class, and the
// cross-function cases that only callee summaries can see.
package ledger

import (
	"errors"

	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

var errBoom = errors.New("boom")

type big struct{ data []byte }

// --- intra-function balance ---

// The error return skips the Free.
func leakOnErr(t mine.MemTracker, ok bool) error {
	t.Alloc(100) // want `not released on every return path`
	if !ok {
		return errBoom
	}
	t.Free(100)
	return nil
}

// A deferred free covers every exit.
func balancedDefer(t mine.MemTracker, ok bool) error {
	t.Alloc(100)
	defer t.Free(100)
	if !ok {
		return errBoom
	}
	return nil
}

// Free-before-return on each path is fine too.
func balancedExplicit(t mine.MemTracker, ok bool) error {
	t.Alloc(100)
	if !ok {
		t.Free(100)
		return errBoom
	}
	t.Free(100)
	return nil
}

// A charge held on every path with the resource handed out is the
// acquire shape, not a leak: the caller inherits the obligation.
func acquireBuf(t mine.MemTracker) *big {
	b := &big{data: make([]byte, 256)}
	t.Alloc(256)
	return b
}

// A free with no local charge: balances the caller's token.
func releaseBuf(t mine.MemTracker, b *big) {
	t.Free(256)
	b.data = nil
}

// --- cross-function balance via summaries ---

// The token comes from acquireBuf's ChargesNet summary and the release
// from releaseBuf's Releases summary; no Alloc/Free pair is visible in
// this function, so only callee summaries catch the leaking path.
func crossLeak(t mine.MemTracker, ok bool) error {
	b := acquireBuf(t) // want `ledger charge acquired by acquireBuf\(t\) is not released on every return path`
	if !ok {
		return errBoom
	}
	releaseBuf(t, b)
	return nil
}

func crossBalanced(t mine.MemTracker, ok bool) error {
	b := acquireBuf(t)
	defer releaseBuf(t, b)
	if !ok {
		return errBoom
	}
	return nil
}

// An acquire that can fail charges only when it succeeds.
func acquireOrFail(t mine.MemTracker, ok bool) (*big, error) {
	if !ok {
		return nil, errBoom
	}
	return acquireBuf(t), nil
}

// Returning the acquire's own error leaks nothing: on that branch the
// acquire charged nothing.
func failedAcquire(t mine.MemTracker, ok bool) error {
	b, err := acquireOrFail(t, ok)
	if err != nil {
		return err
	}
	releaseBuf(t, b)
	return nil
}

// Any other early return still skips the release.
func leakAfterAcquire(t mine.MemTracker, ok, more bool) error {
	b, err := acquireOrFail(t, ok) // want `ledger charge acquired by acquireOrFail\(t, ok\) is not released on every return path`
	if err != nil {
		return err
	}
	if !more {
		return errBoom
	}
	releaseBuf(t, b)
	return nil
}

// --- span attribution (the PR-6 bug class) ---

// The charge runs after the span ended: its bytes vanish from the
// phase aggregates.
func prSixBare(r *obs.Recorder, t mine.MemTracker) {
	sp := r.Start("build")
	sp.End()
	t.Alloc(64) // want `outside any open obs span`
	t.Free(64)
}

func spanCovered(r *obs.Recorder, t mine.MemTracker) {
	sp := r.Start("build")
	t.Alloc(64)
	sp.End()
	// Frees between spans are balance-checked but carry no attribution
	// obligation (releases are applied against the gauge immediately).
	t.Free(64)
}

// A function that starts no spans has no attribution obligation: its
// span-using callers cover the call site instead.
func noSpans(t mine.MemTracker) {
	t.Alloc(8)
	t.Free(8)
}

// A charge hidden inside a callee still needs span cover at the call.
func viaBare(r *obs.Recorder, t mine.MemTracker) {
	sp := r.Start("work")
	sp.End()
	noSpans(t) // want `call to noSpans charges the ledger outside any open obs span`
}

func viaCovered(r *obs.Recorder, t mine.MemTracker) {
	sp := r.Start("work")
	noSpans(t)
	sp.End()
}

// A deferred release helper discharges the token at every exit.
func deferredHelper(t mine.MemTracker, ok bool) error {
	b := acquireBuf(t)
	defer func() {
		releaseBuf(t, b)
	}()
	if !ok {
		return errBoom
	}
	return nil
}
