package vm

import (
	"testing"
	"time"

	"cfpgrowth/internal/mine"
)

func TestPenaltyZeroWithinBudget(t *testing.T) {
	m := Default(1 << 30)
	if p := m.Penalty(1<<30, 1<<32, Random); p != 0 {
		t.Errorf("penalty %v at exactly budget, want 0", p)
	}
	if p := m.Penalty(1<<20, 1<<20, Sequential); p != 0 {
		t.Errorf("penalty %v under budget, want 0", p)
	}
}

func TestPenaltyMonotoneInPeak(t *testing.T) {
	m := Default(1 << 20)
	prev := time.Duration(0)
	for _, peak := range []int64{1 << 20, 3 << 19, 1 << 21, 1 << 22, 1 << 24} {
		p := m.Penalty(peak, 1<<22, Random)
		if p < prev {
			t.Errorf("penalty decreased at peak %d: %v < %v", peak, p, prev)
		}
		prev = p
	}
}

func TestPenaltyRandomExceedsSequential(t *testing.T) {
	m := Default(1 << 20)
	r := m.Penalty(1<<22, 1<<22, Random)
	s := m.Penalty(1<<22, 1<<22, Sequential)
	if r <= s {
		t.Errorf("random %v not above sequential %v", r, s)
	}
	// Orders of magnitude apart, matching disk seek vs stream.
	if r < 100*s {
		t.Errorf("random/sequential ratio %v/%v too small", r, s)
	}
}

func TestPenaltyScalesWithTouched(t *testing.T) {
	m := Default(1 << 20)
	a := m.Penalty(1<<22, 1<<22, Sequential)
	b := m.Penalty(1<<22, 1<<24, Sequential)
	if b <= a {
		t.Errorf("penalty did not grow with touched bytes: %v vs %v", a, b)
	}
}

func TestPenaltyUnlimitedBudget(t *testing.T) {
	m := Model{PhysicalBytes: 0}
	if p := m.Penalty(1<<40, 1<<40, Random); p != 0 {
		t.Errorf("no budget must mean no penalty, got %v", p)
	}
}

func TestRegime(t *testing.T) {
	m := Default(100)
	cases := map[int64]int{50: 1, 100: 1, 150: 2, 200: 2, 201: 3, 1000: 3}
	for peak, want := range cases {
		if got := m.Regime(peak); got != want {
			t.Errorf("Regime(%d) = %d, want %d", peak, got, want)
		}
	}
}

// TestMinePenaltyReadsLedger: the mine penalty is zero while the
// ledger's peak fits the budget, and past it grows with the bytes the
// run allocated, not with the bytes still charged.
func TestMinePenaltyReadsLedger(t *testing.T) {
	m := Default(1 << 12)
	var under mine.Control
	under.Alloc(1 << 10)
	if p := m.MinePenalty(&under); p != 0 {
		t.Errorf("unexpected penalty under budget: %v", p)
	}
	var once, twice mine.Control
	once.Alloc(1 << 14)
	for i := 0; i < 2; i++ {
		twice.Alloc(1 << 14)
		twice.Free(1 << 14)
	}
	p1, p2 := m.MinePenalty(&once), m.MinePenalty(&twice)
	if p1 == 0 {
		t.Error("expected nonzero mine penalty over budget")
	}
	if p2 != 2*p1 {
		t.Errorf("penalty after two allocations of the peak = %v, want twice %v", p2, p1)
	}
}
