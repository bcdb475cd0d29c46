//go:build debugchecks

package core

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"cfpgrowth/internal/encoding"
)

// These tests exercise the debugchecks assertion layer directly on
// corrupted in-memory CFP-array buffers, bypassing the ReadArray trust
// boundary the way a bug in Convert or a stray write would. They only
// build under -tags debugchecks; regular builds compile the assertions
// out entirely.

func mustPanicContaining(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected assertion panic containing %q, got normal return", want)
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func debugTestArray() *Array {
	tree := newTestTree(Config{}, 3)
	tree.Insert([]uint32{0, 1, 2}, 1)
	tree.Insert([]uint32{0, 2}, 1)
	tree.Insert([]uint32{1, 2}, 1)
	return Convert(tree)
}

func TestDecodeAssertsOnTruncatedTriple(t *testing.T) {
	a := debugTestArray()
	// Overwrite rank 0's whole subarray with varint continuation bytes:
	// every decode runs off the end of the buffer without terminating.
	for i := a.starts[0]; i < a.starts[1]; i++ {
		a.data[i] = 0x80
	}
	mustPanicContaining(t, "truncated CFP-array triple", func() {
		a.ScanItem(0, func(Element) bool { return true })
	})
}

func TestDecodeAssertsOnZeroDelta(t *testing.T) {
	a := debugTestArray()
	// Δitem 0 would make backward traversal loop on the same rank
	// forever. Rank 0 holds a single parentless triple whose first byte
	// is its Δitem varint. The assert bounds Δitem on both sides
	// (1 ≤ Δitem ≤ 2^32-1), so zero trips the out-of-range message.
	a.data[a.starts[0]] = 0x00
	mustPanicContaining(t, "Δitem out of range", func() {
		a.ScanItem(0, func(Element) bool { return true })
	})
}

func TestDecodeAssertsOnZeroCount(t *testing.T) {
	a := debugTestArray()
	// The rank-0 triple is (Δitem=1, Δpos=0, count): one byte each, so
	// the count varint sits two bytes in.
	a.data[a.starts[0]+2] = 0x00
	mustPanicContaining(t, "zero count", func() {
		a.At(0, 0)
	})
}

func TestParentFieldsAssertOnCorruption(t *testing.T) {
	a := debugTestArray()
	// ParentFields reads from the element to the end of the data, so a
	// resynchronizing corruption can slip past it; an all-continuation
	// buffer cannot (the varint runs to the end of the data and reports
	// truncation).
	for i := range a.data {
		a.data[i] = 0x80
	}
	mustPanicContaining(t, "truncated CFP-array triple", func() {
		a.ParentFields(0, 0)
	})
}

// TestSupportOfStopsOnTruncatedRun: a run of one continuation byte
// decodes with length 0, so without the assertions SupportOf's sweep
// never advances and spins forever. The query has two items, as a
// one-item query is answered from the support without a sweep. The
// call runs in a goroutine that must panic within the deadline. A
// spinning goroutine cannot be stopped, so a missed deadline, or a heap
// that grows past 256 MiB while waiting, aborts the whole test binary
// rather than leaving it eating memory.
func TestSupportOfStopsOnTruncatedRun(t *testing.T) {
	a := &Array{
		data:     []byte{1, 0, 1, 0x80},
		starts:   []uint64{0, 3, 4},
		support:  []uint64{1, 1},
		nodes:    []int{1, 1},
		itemName: []uint32{0, 1},
		numNodes: 2,
	}
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		a.SupportOf([]uint32{0, 1})
	}()
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	base := sample[0].Value.Uint64()
	deadline := time.Now().Add(10 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case r := <-done:
			msg, _ := r.(string)
			if !strings.Contains(msg, "truncated CFP-array triple") {
				t.Fatalf("SupportOf returned or panicked with %v, want the truncated-triple assertion", r)
			}
			return
		case <-tick.C:
		}
		metrics.Read(sample)
		if grown := sample[0].Value.Uint64() - base; grown > 256<<20 || time.Now().After(deadline) {
			panic(fmt.Sprintf("SupportOf over a truncated run is still looping (heap grew %d bytes)", grown))
		}
	}
}

func TestWriteSlotAsserts(t *testing.T) {
	var buf [encoding.Ptr40Len]byte
	mustPanicContaining(t, "exceeds MaxPtr40", func() {
		writeSlot(buf[:], ptrSlot(encoding.MaxPtr40+1))
	})
	mustPanicContaining(t, "Δitem", func() {
		writeSlot(buf[:], embedSlot(0, 5))
	})
	mustPanicContaining(t, "pcount", func() {
		writeSlot(buf[:], embedSlot(1, embedMaxPcount+1))
	})
}

// TestUncorruptedPathsStillPass pins that the assertion layer stays
// silent on well-formed data: the same build/convert/scan cycle the
// regular tests run must not trip any assert under debugchecks.
func TestUncorruptedPathsStillPass(t *testing.T) {
	a := debugTestArray()
	seen := 0
	for rk := uint32(0); int(rk) < a.NumItems(); rk++ {
		a.ScanItem(rk, func(e Element) bool {
			seen++
			a.PathTo(e, nil)
			return true
		})
	}
	if seen != a.NumNodes() {
		t.Errorf("scanned %d elements, want %d", seen, a.NumNodes())
	}
}
