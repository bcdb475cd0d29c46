// Package vm models the virtual-memory behavior that dominates the
// paper's Figures 7 and 8: once a miner's working set exceeds physical
// memory, page faults against disk turn an in-core algorithm into an
// out-of-core one, with penalties that differ by orders of magnitude
// between sequential and random access patterns.
//
// The paper ran on a 6 GB machine and let real swapping happen. We
// cannot (and should not) thrash the build machine, so the harness runs
// every algorithm fully in core, records its modeled footprint in the
// run's byte ledger (mine.Control), and charges a modeled paging penalty
// on top of the measured CPU time. The penalty model is deliberately simple and
// documented; the crossover *shapes* it produces are governed by the
// same byte footprints the paper measures (DESIGN.md §2, substitution 3).
package vm

import (
	"time"

	"cfpgrowth/internal/mine"
)

// Pattern classifies how a structure is accessed while it exceeds
// memory.
type Pattern int

const (
	// Sequential: streaming access (CFP-array conversion writes, data
	// scans). One fault per page, amortized at disk bandwidth.
	Sequential Pattern = iota
	// Random: pointer-chasing access (FP-tree build and mining). Pages
	// are revisited many times and each revisit may fault.
	Random
)

// Model is a paging cost model.
type Model struct {
	// PhysicalBytes is the physical memory budget (the paper's 6 GB,
	// scaled down alongside the datasets).
	PhysicalBytes int64
	// PageBytes is the page size (default 4096).
	PageBytes int64
	// SeqPagePenalty is the cost of streaming one page from disk
	// (default 40µs ≈ 100 MB/s, the paper's measured disk bandwidth).
	SeqPagePenalty time.Duration
	// RandPagePenalty is the cost of one random-access fault (default
	// 5ms seek+read).
	RandPagePenalty time.Duration
	// RandomRevisits approximates how many times a resident page is
	// re-touched during pointer-chasing workloads; each re-touch of a
	// non-resident page faults (default 8).
	RandomRevisits float64
}

// Default returns the model used by the experiment harness: a budget of
// physBytes with disk characteristics matching the paper's hardware.
func Default(physBytes int64) Model {
	return Model{
		PhysicalBytes:   physBytes,
		PageBytes:       4096,
		SeqPagePenalty:  40 * time.Microsecond,
		RandPagePenalty: 5 * time.Millisecond,
		RandomRevisits:  8,
	}
}

func (m Model) withDefaults() Model {
	if m.PageBytes == 0 {
		m.PageBytes = 4096
	}
	if m.SeqPagePenalty == 0 {
		m.SeqPagePenalty = 40 * time.Microsecond
	}
	if m.RandPagePenalty == 0 {
		m.RandPagePenalty = 5 * time.Millisecond
	}
	if m.RandomRevisits == 0 {
		m.RandomRevisits = 8
	}
	return m
}

// Penalty returns the modeled paging cost of a phase with the given
// peak working set, total bytes touched, and access pattern.
//
// The model: with peak P over budget B, the non-resident fraction is
// f = 1 - B/P (the OS keeps B bytes resident). Sequential phases fault
// each touched page at most once, paying f × touched/page sequential
// faults. Random phases touch each page RandomRevisits times and pay a
// random fault whenever the page is in the non-resident fraction:
// f × revisits × touched/page faults. Below budget the penalty is 0 —
// the paper's regime 1 ("best performance when all structures fit").
func (m Model) Penalty(peakBytes, touchedBytes int64, p Pattern) time.Duration {
	m = m.withDefaults()
	if m.PhysicalBytes <= 0 || peakBytes <= m.PhysicalBytes {
		return 0
	}
	f := 1 - float64(m.PhysicalBytes)/float64(peakBytes)
	pages := float64(touchedBytes) / float64(m.PageBytes)
	switch p {
	case Sequential:
		return time.Duration(f * pages * float64(m.SeqPagePenalty))
	default:
		return time.Duration(f * m.RandomRevisits * pages * float64(m.RandPagePenalty))
	}
}

// MinePenalty charges the mining workload recorded by a run's ledger:
// pointer-chasing (random) over everything it allocated (the proxy for
// bytes touched) at its peak working set.
func (m Model) MinePenalty(ctl *mine.Control) time.Duration {
	return m.Penalty(ctl.PeakBytes(), ctl.TotalAlloc(), Random)
}

// Regime classifies a peak footprint against the budget into the
// paper's three regimes (§4.4): 1 = fully in core, 2 = working set
// fits (moderate degradation), 3 = thrashing.
func (m Model) Regime(peakBytes int64) int {
	m = m.withDefaults()
	switch {
	case peakBytes <= m.PhysicalBytes:
		return 1
	case peakBytes <= 2*m.PhysicalBytes:
		return 2
	default:
		return 3
	}
}
