package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfpgrowth/internal/obs"
)

// benchConfig is small enough for unit tests.
func benchConfig() Config {
	return Config{Scale: 20000, Quick: true}.WithDefaults()
}

func TestBenchOneRecord(t *testing.T) {
	c := benchConfig()
	r, err := c.BenchOne("quest1", c.Quest1(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchRecord(r); err != nil {
		t.Fatalf("fresh record invalid: %v", err)
	}
	if r.Dataset != "quest1" || r.Algo != "cfpgrowth-par" {
		t.Errorf("identity = %s/%s", r.Dataset, r.Algo)
	}
	if r.SchemaVersion != 2 {
		t.Errorf("schema_version = %d, want 2", r.SchemaVersion)
	}
	h, ok := r.Hists[obs.HistCondMine.String()]
	if !ok || h.Count == 0 {
		t.Errorf("cond_mine histogram missing or empty: %+v", r.Hists)
	}
	if q, ok := r.Hists[obs.HistQuery.String()]; !ok || q.Count != 1 {
		t.Errorf("query histogram = %+v, want exactly one sample", q)
	}
	if r.MinePool == nil || len(r.MinePool.Shards) != benchShards {
		t.Fatalf("mine pool = %+v, want %d shards", r.MinePool, benchShards)
	}
	if r.MinePool.JobsTotal == 0 || r.MinePool.BusyImbalance < 1.0 {
		t.Errorf("mine pool jobs_total = %d, busy_imbalance = %.3f",
			r.MinePool.JobsTotal, r.MinePool.BusyImbalance)
	}
	if r.GC == nil {
		t.Error("gc section missing")
	}
	for _, want := range []string{obs.PhasePass1, obs.PhaseBuild, obs.PhaseMine} {
		if _, ok := r.Phases[want]; !ok {
			t.Errorf("phase %q missing from %v", want, r.Phases)
		}
	}
	if r.Counters["itemsets"] != r.Itemsets {
		t.Errorf("counters[itemsets] = %d, itemsets field = %d", r.Counters["itemsets"], r.Itemsets)
	}
	if r.MaxDepth == 0 {
		t.Error("max_depth = 0, want conditional recursion observed")
	}
}

func TestWriteAndValidateBenchJSON(t *testing.T) {
	c := benchConfig()
	dir := t.TempDir()
	paths, err := c.WriteBenchJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d files, want 2", len(paths))
	}
	for _, p := range paths {
		base := filepath.Base(p)
		if !strings.HasPrefix(base, "BENCH_") || !strings.HasSuffix(base, ".json") {
			t.Errorf("unexpected file name %s", base)
		}
		r, err := ValidateBenchJSON(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if r.SchemaVersion != BenchSchemaVersion {
			t.Errorf("%s: schema %d", p, r.SchemaVersion)
		}
	}
}

func TestValidateBenchJSONRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"unknown-field.json", `{"schema_version":1,"bogus":true}`, "bogus"},
		{"bad-version.json", `{"schema_version":99,"dataset":"d","algo":"a"}`, "schema_version"},
		{"not-json.json", `{`, "unexpected"},
		{"empty-run.json", `{"schema_version":1,"dataset":"d","algo":"a","transactions":0}`, "transactions"},
	} {
		_, err := ValidateBenchJSON(write(tc.name, tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestBenchRecordBytesDeltaWired is the regression test for the
// accounting bug where every phase's bytes_delta was zero: the ledger
// charges happened outside the phase spans, so records carried peak
// memory but no per-phase attribution. Fresh records must charge the
// build phases positive deltas and the mine phase a negative one (it
// frees the CFP-array at the end).
func TestBenchRecordBytesDeltaWired(t *testing.T) {
	c := benchConfig()
	r, err := c.BenchOne("quest1", c.Quest1(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{obs.PhasePass1, obs.PhaseBuild, obs.PhaseConvert} {
		p, ok := r.Phases[phase]
		if !ok {
			t.Fatalf("phase %q missing", phase)
		}
		if p.BytesDelta <= 0 {
			t.Errorf("phase %q bytes_delta = %d, want > 0", phase, p.BytesDelta)
		}
	}
	if p := r.Phases[obs.PhaseMine]; p.BytesDelta >= 0 {
		t.Errorf("mine bytes_delta = %d, want < 0 (frees the CFP-array)", p.BytesDelta)
	}
	// Every charge is balanced by a free (the ledger tests assert
	// Cur == 0), but one free lands between spans: the count table is
	// released in the recoder-setup glue after pass1 ends. The phase
	// deltas therefore sum to exactly the pass1 charge — anything else
	// means a charge has drifted out of its span.
	var sum int64
	for _, p := range r.Phases {
		sum += p.BytesDelta
	}
	if want := r.Phases[obs.PhasePass1].BytesDelta; sum != want {
		t.Errorf("phase bytes_delta sum = %d, want %d (the count table released between spans)", sum, want)
	}
}

// mkBenchV1 is a minimal valid schema-v1 record, the shape of committed
// baselines predating the percentile fields.
func mkBenchV1() BenchRecord {
	return BenchRecord{
		SchemaVersion: benchSchemaV1,
		Dataset:       "quest1", Algo: "cfpgrowth",
		Scale: 1000, RelSupport: 0.01,
		Transactions: 10, AbsSupport: 2,
		PeakBytes: 1, Itemsets: 42, WallMillis: 100,
		Phases: map[string]BenchPhase{
			obs.PhaseMine:  {Count: 1, Millis: 80, BytesDelta: -5},
			obs.PhaseBuild: {Count: 1, Millis: 10, BytesDelta: 5},
		},
	}
}

// mkBenchV2 is a minimal valid schema-v2 record.
func mkBenchV2() BenchRecord {
	r := mkBenchV1()
	r.SchemaVersion = BenchSchemaVersion
	r.Algo = "cfpgrowth-par"
	r.Hists = map[string]BenchHist{
		obs.HistCondMine.String(): {Count: 100, P50Millis: 0.5, P95Millis: 2, P99Millis: 4},
		obs.HistQuery.String():    {Count: 1, P50Millis: 100, P95Millis: 100, P99Millis: 100},
	}
	r.MinePool = &BenchPool{
		Workers: 2,
		Shards: []BenchShard{
			{Queue: 5, Jobs: 5, BusyMillis: 40},
			{Queue: 5, Jobs: 5, Steals: 2, BusyMillis: 38},
		},
		JobsTotal: 10, StealsTotal: 2, BusyImbalance: 1.03,
	}
	r.GC = &BenchGC{Cycles: 3, PauseMillis: 0.2, AllocBytes: 1 << 20}
	return r
}

func TestCompareBenchRecords(t *testing.T) {
	for _, mk := range []func() BenchRecord{mkBenchV1, mkBenchV2} {
		base := mk()
		if err := CompareBenchRecords(mk(), base); err != nil {
			t.Fatalf("identical v%d records rejected: %v", base.SchemaVersion, err)
		}
		// Inside tolerance: 10% exactly.
		r := mk()
		r.Phases[obs.PhaseMine] = BenchPhase{Count: 1, Millis: 88, BytesDelta: -5}
		if err := CompareBenchRecords(r, base); err != nil {
			t.Errorf("v%d 10%% slowdown rejected: %v", base.SchemaVersion, err)
		}
		for _, tc := range []struct {
			name    string
			mut     func(*BenchRecord)
			wantErr string
		}{
			{"mine-regression", func(r *BenchRecord) {
				r.Phases[obs.PhaseMine] = BenchPhase{Count: 1, Millis: 95, BytesDelta: -5}
			}, "exceeds baseline"},
			{"all-zero-bytes-delta", func(r *BenchRecord) {
				r.Phases[obs.PhaseMine] = BenchPhase{Count: 1, Millis: 80}
				r.Phases[obs.PhaseBuild] = BenchPhase{Count: 1, Millis: 10}
			}, "bytes_delta 0"},
			{"itemset-divergence", func(r *BenchRecord) { r.Itemsets = 41 }, "diverged"},
			{"scale-mismatch", func(r *BenchRecord) { r.Scale = 500 }, "incomparable"},
			{"identity-mismatch", func(r *BenchRecord) { r.Dataset = "quest2" }, "identity"},
		} {
			r := mk()
			tc.mut(&r)
			err := CompareBenchRecords(r, base)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("v%d %s: err = %v, want substring %q", base.SchemaVersion, tc.name, err, tc.wantErr)
			}
		}
	}
}

// TestCompareBenchRecordsMixedVersions pins the mixed-version contract:
// a v2 fresh record against a v1 baseline (and vice versa) is a clear,
// named error — never a zero-compare that silently skips the v2 gates.
func TestCompareBenchRecordsMixedVersions(t *testing.T) {
	v1, v2 := mkBenchV1(), mkBenchV2()
	// Align identity so only the schema version differs.
	v1.Algo = v2.Algo
	for _, tc := range []struct{ fresh, baseline BenchRecord }{
		{v2, v1},
		{v1, v2},
	} {
		err := CompareBenchRecords(tc.fresh, tc.baseline)
		if err == nil {
			t.Fatalf("v%d fresh vs v%d baseline accepted, want schema mismatch error",
				tc.fresh.SchemaVersion, tc.baseline.SchemaVersion)
		}
		if !strings.Contains(err.Error(), "schema version mismatch") ||
			!strings.Contains(err.Error(), "regenerate the baseline") {
			t.Errorf("mixed-version error not actionable: %v", err)
		}
	}
}

// TestCompareBenchRecordsV2Gates exercises the v2-only gates: the
// conditional-mine p99 regression and the shard busy-imbalance ceiling.
func TestCompareBenchRecordsV2Gates(t *testing.T) {
	base := mkBenchV2()
	// p99 within the wide tolerance: 1.5x plus the 1 ms floor.
	r := mkBenchV2()
	r.Hists[obs.HistCondMine.String()] = BenchHist{Count: 100, P50Millis: 0.5, P95Millis: 2, P99Millis: 5.9}
	if err := CompareBenchRecords(r, base); err != nil {
		t.Errorf("p99 within tolerance rejected: %v", err)
	}
	r.Hists[obs.HistCondMine.String()] = BenchHist{Count: 100, P50Millis: 0.5, P95Millis: 2, P99Millis: 6.2}
	if err := CompareBenchRecords(r, base); err == nil || !strings.Contains(err.Error(), "p99") {
		t.Errorf("p99 regression err = %v, want p99 gate", err)
	}
	// A microsecond-scale baseline gets the absolute floor, not the
	// fraction: 0.01 ms -> 0.5 ms must still pass.
	tiny := mkBenchV2()
	tiny.Hists[obs.HistCondMine.String()] = BenchHist{Count: 100, P50Millis: 0.001, P95Millis: 0.005, P99Millis: 0.01}
	fresh := mkBenchV2()
	fresh.Hists[obs.HistCondMine.String()] = BenchHist{Count: 100, P50Millis: 0.001, P95Millis: 0.005, P99Millis: 0.5}
	if err := CompareBenchRecords(fresh, tiny); err != nil {
		t.Errorf("sub-floor p99 jitter rejected: %v", err)
	}
	// Imbalance: the ceiling is max(2x baseline, the absolute floor).
	r = mkBenchV2()
	r.MinePool.BusyImbalance = 2.4
	if err := CompareBenchRecords(r, base); err != nil {
		t.Errorf("imbalance under floor rejected: %v", err)
	}
	r.MinePool.BusyImbalance = 2.6
	if err := CompareBenchRecords(r, base); err == nil || !strings.Contains(err.Error(), "imbalance") {
		t.Errorf("imbalance err = %v, want imbalance gate", err)
	}
}

// TestValidateBenchJSONQueryWithinWall: the query histogram holds one
// sample per mine call, so its p99 above the record's wall time means
// the percentile is fabricated. ValidateBenchJSON rejects such a
// record; ReadBenchJSON, which the regression gate loads committed
// baselines with, still accepts it.
func TestValidateBenchJSONQueryWithinWall(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r BenchRecord) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := mkBenchV2()
	if _, err := ValidateBenchJSON(write("ok.json", ok)); err != nil {
		t.Fatalf("record with query p99 = wall rejected: %v", err)
	}
	bad := mkBenchV2()
	bad.Hists[obs.HistQuery.String()] = BenchHist{Count: 1, P50Millis: 4294.97, P95Millis: 4294.97, P99Millis: 4294.97}
	bad.WallMillis = 2399.6
	p := write("bad.json", bad)
	if _, err := ValidateBenchJSON(p); err == nil || !strings.Contains(err.Error(), "exceeds wall") {
		t.Errorf("query p99 above wall: err = %v, want an \"exceeds wall\" rejection", err)
	}
	if _, err := ReadBenchJSON(p); err != nil {
		t.Errorf("ReadBenchJSON rejected a structurally valid record: %v", err)
	}
}

func TestValidateBenchRecordPhaseSum(t *testing.T) {
	r := BenchRecord{
		SchemaVersion: benchSchemaV1, // shared checks apply to both versions
		Dataset:       "d", Algo: "a",
		Transactions: 10, AbsSupport: 2,
		PeakBytes: 1, Itemsets: 1,
		WallMillis: 10,
		Phases: map[string]BenchPhase{
			obs.PhaseMine: {Count: 1, Millis: 50}, // 5x the wall clock
		},
	}
	if err := ValidateBenchRecord(r); err == nil {
		t.Error("phase sum exceeding wall time not rejected")
	}
	r.Phases[obs.PhaseMine] = BenchPhase{Count: 1, Millis: 9}
	if err := ValidateBenchRecord(r); err != nil {
		t.Errorf("consistent record rejected: %v", err)
	}
}
