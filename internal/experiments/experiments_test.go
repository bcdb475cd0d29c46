package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// testConfig is tiny: 1/20000-scale datasets so the whole suite runs in
// seconds.
func testConfig() Config {
	return Config{Scale: 20000, Quick: true}.WithDefaults()
}

func TestDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 1000 {
		t.Errorf("default scale = %d", c.Scale)
	}
	if c.MemBudget != 48<<20 {
		t.Errorf("default budget = %d, want 48 MiB", c.MemBudget)
	}
	c2 := Config{Scale: 4000}.WithDefaults()
	if c2.MemBudget != 12<<20 {
		t.Errorf("scaled budget = %d, want 12 MiB", c2.MemBudget)
	}
}

func TestSupportSweep(t *testing.T) {
	full := Config{}.WithDefaults().SupportSweep()
	quick := Config{Quick: true}.WithDefaults().SupportSweep()
	if len(full) <= len(quick) {
		t.Error("full sweep not longer than quick sweep")
	}
	for i := 1; i < len(full); i++ {
		if full[i] >= full[i-1] {
			t.Error("sweep not strictly decreasing")
		}
	}
}

func TestTable1(t *testing.T) {
	r, err := testConfig().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes == 0 {
		t.Fatal("no nodes analyzed")
	}
	if r.Table.ZeroByteShare < 0.3 {
		t.Errorf("zero-byte share %.2f unexpectedly low", r.Table.ZeroByteShare)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "nodelink") {
		t.Error("Table 1 output missing field rows")
	}
}

func TestTable2(t *testing.T) {
	r, err := testConfig().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Pcount.Percent(4)+r.Stats.Pcount.Percent(3) < 80 {
		t.Errorf("pcount small-value share too low: %+v", r.Stats.Pcount)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "pcount") {
		t.Error("Table 2 output missing pcount row")
	}
}

func TestTable3(t *testing.T) {
	rows, err := testConfig().Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[1].NumTx != 2*rows[0].NumTx {
		t.Errorf("quest2 tx %d != 2x quest1 %d", rows[1].NumTx, rows[0].NumTx)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "quest1") {
		t.Error("Table 3 output missing rows")
	}
}

func TestFig6(t *testing.T) {
	rows, err := testConfig().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TreeAvgNode <= 0 || r.TreeAvgNode > 28 {
			t.Errorf("%s/%s: tree avg node %.2f outside (0,28]", r.Dataset, r.SupportLevel, r.TreeAvgNode)
		}
		if r.ArrayAvgNode <= 0 || r.ArrayAvgNode > 15 {
			t.Errorf("%s/%s: array avg node %.2f outside (0,15]", r.Dataset, r.SupportLevel, r.ArrayAvgNode)
		}
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if !strings.Contains(buf.String(), "6(b)") {
		t.Error("Fig 6 output missing panel (b)")
	}
}

func TestFig7ShapesHold(t *testing.T) {
	cfg := testConfig()
	rows, err := cfg.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// The paper's headline: CFP build memory well below FP's.
		if r.CFPBuildBytes >= r.FPBuildBytes {
			t.Errorf("ξ=%.3f: CFP build bytes %d not below FP %d", r.RelSupport, r.CFPBuildBytes, r.FPBuildBytes)
		}
		if r.CFPPeakBytes >= r.FPPeakBytes {
			t.Errorf("ξ=%.3f: CFP peak %d not below FP %d", r.RelSupport, r.CFPPeakBytes, r.FPPeakBytes)
		}
		// The flat decode only adds scratch to the paper's layout.
		if r.PaperPeakBytes <= 0 || r.PaperPeakBytes > r.CFPPeakBytes {
			t.Errorf("ξ=%.3f: paper-layout peak %d, want in (0, %d]", r.RelSupport, r.PaperPeakBytes, r.CFPPeakBytes)
		}
		if r.Itemsets == 0 {
			t.Errorf("ξ=%.3f: no itemsets found", r.RelSupport)
		}
	}
	// Tree size grows as support shrinks.
	for i := 1; i < len(rows); i++ {
		if rows[i].Nodes < rows[i-1].Nodes {
			t.Errorf("tree size not monotone: %d then %d", rows[i-1].Nodes, rows[i].Nodes)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows, cfg)
	for _, panel := range []string{"(a)", "(b)", "(c)", "(d)", "paper peak"} {
		if !strings.Contains(buf.String(), panel) {
			t.Errorf("Fig 7 output missing %s", panel)
		}
	}
}

func TestFig8ShapesHold(t *testing.T) {
	cfg := testConfig()
	res, err := cfg.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	// Every algorithm at every support must agree on the itemset count.
	byRel := map[float64]uint64{}
	for _, c := range res.Cells {
		if want, ok := byRel[c.RelSupport]; ok {
			if c.Itemsets != want {
				t.Errorf("ξ=%.3f: %s found %d itemsets, others %d", c.RelSupport, c.Algorithm, c.Itemsets, want)
			}
		} else {
			byRel[c.RelSupport] = c.Itemsets
		}
	}
	// CFP-growth must have the smallest peak at the lowest support.
	rel := res.Cells[len(res.Cells)-1].RelSupport
	var cfp int64 = -1
	minOther := int64(1) << 62
	for _, c := range res.Cells {
		if c.RelSupport != rel {
			continue
		}
		if c.Algorithm == "cfpgrowth" {
			cfp = c.PeakBytes
		} else if c.PeakBytes < minOther {
			minOther = c.PeakBytes
		}
	}
	if cfp <= 0 || cfp >= minOther {
		t.Errorf("cfpgrowth peak %d not below all competitors (min other %d)", cfp, minOther)
	}
	var buf bytes.Buffer
	res.Print(&buf, cfg)
	if !strings.Contains(buf.String(), "peak memory") {
		t.Error("Fig 8 output missing memory panel")
	}
}

func TestAblation(t *testing.T) {
	rows, err := testConfig().Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Nodes == 0 || r.Bytes == 0 {
			t.Errorf("row %q empty", r.Name)
		}
	}
	full := byName["full (paper settings)"]
	noChains := byName["no chain nodes"]
	if noChains.AvgNodeSize <= full.AvgNodeSize {
		t.Errorf("disabling chains did not increase node size: %.2f vs %.2f",
			noChains.AvgNodeSize, full.AvgNodeSize)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "chains") {
		t.Error("ablation output missing rows")
	}
}

func TestArrayVsDirect(t *testing.T) {
	rows, err := testConfig().ArrayVsDirect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Itemsets != rows[1].Itemsets {
		t.Errorf("array and direct disagree: %d vs %d itemsets", rows[0].Itemsets, rows[1].Itemsets)
	}
	var buf bytes.Buffer
	PrintArrayVsDirect(&buf, rows)
	if !strings.Contains(buf.String(), "slowdown") {
		t.Error("comparison output incomplete")
	}
}

// TestBenchRecordBytesDeltaWired: on the quest1 workload at relative
// support 0.01, mined by a four-worker pool under a budget ledger, every
// phase's bytes_delta has the sign of the memory it owns: pass1, build
// and convert charge, mine frees the CFP-array.
func TestBenchRecordBytesDeltaWired(t *testing.T) {
	c := testConfig()
	db := c.Quest1()
	counts, err := dataset.CountItems(db)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &mine.Control{}
	rec := obs.New(nil)
	g := core.Growth{Workers: 4, Track: &mine.BudgetTracker{Ctl: ctl}, Ctl: ctl, Rec: rec}
	var sink mine.CountSink
	if err := g.Mine(db, dataset.AbsoluteSupport(0.01, counts.NumTx), &sink); err != nil {
		t.Fatal(err)
	}
	phases := rec.Snapshot().Phases
	for _, phase := range []string{obs.PhasePass1, obs.PhaseBuild, obs.PhaseConvert} {
		p, ok := phases[phase]
		if !ok {
			t.Fatalf("phase %q missing", phase)
		}
		if p.Bytes <= 0 {
			t.Errorf("phase %q bytes_delta = %d, want > 0", phase, p.Bytes)
		}
	}
	if p := phases[obs.PhaseMine]; p.Bytes >= 0 {
		t.Errorf("mine bytes_delta = %d, want < 0 (frees the CFP-array)", p.Bytes)
	}
	// Every charge is balanced by a free, but one free lands between
	// spans: the count table is released in the recoder-setup glue after
	// pass1 ends. The phase deltas therefore sum to exactly the pass1
	// charge; anything else means a charge has drifted out of its span.
	var sum int64
	for _, p := range phases {
		sum += p.Bytes
	}
	if want := phases[obs.PhasePass1].Bytes; sum != want {
		t.Errorf("phase bytes_delta sum = %d, want %d (the count table released between spans)", sum, want)
	}
	if ctl.Bytes() != 0 {
		t.Errorf("%d bytes still charged after the run", ctl.Bytes())
	}
}
