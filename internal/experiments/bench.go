package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// BenchSchemaVersion is the schema_version of freshly generated
// BENCH_*.json records; bump it on incompatible changes (docs/FORMAT.md
// §6). Version 2 added latency percentiles, the mine-pool balance
// summary, and GC totals; version-1 records remain readable (the added
// fields are all optional) but are never generated anymore.
const BenchSchemaVersion = 2

// benchSchemaV1 is the pre-percentile schema still accepted on read,
// so old committed baselines keep validating.
const benchSchemaV1 = 1

// Fixed mine-pool shape of every benchmark run: the committed records
// carry per-shard balance, which is only comparable across runs when
// the pool geometry is pinned rather than inherited from the host's
// GOMAXPROCS.
const (
	benchWorkers = 4
	benchShards  = 8
)

// BenchPhase is one phase's aggregate inside a BenchRecord.
type BenchPhase struct {
	// Count is the number of spans folded into the aggregate.
	Count int64 `json:"count"`
	// Millis is the phase's total wall time.
	Millis float64 `json:"millis"`
	// BytesDelta is the summed modeled-byte delta across the spans.
	BytesDelta int64 `json:"bytes_delta"`
}

// BenchRecord is one benchmark run in the BENCH_*.json format: the
// machine-readable counterpart of the run summary cmd/cfpmine prints,
// produced by cmd/experiments -json-out and consumed by plotting and
// regression tooling. Field semantics are documented in docs/FORMAT.md
// §6.
type BenchRecord struct {
	SchemaVersion int     `json:"schema_version"`
	Dataset       string  `json:"dataset"`
	Algo          string  `json:"algo"`
	Scale         int     `json:"scale"`
	RelSupport    float64 `json:"rel_support"`
	AbsSupport    uint64  `json:"abs_support"`
	Transactions  uint64  `json:"transactions"`
	// WallMillis is the end-to-end run wall time; the phase times in
	// Phases sum to approximately (not exactly) this value, the
	// remainder being inter-phase glue such as recoder setup.
	WallMillis float64               `json:"wall_ms"`
	Phases     map[string]BenchPhase `json:"phases"`
	// PeakBytes is the modeled-memory high-water mark of the run's
	// mine.Control ledger (identical to the recorder's by
	// construction: both observe the same allocation stream).
	PeakBytes int64            `json:"peak_bytes"`
	Itemsets  int64            `json:"itemsets"`
	MaxDepth  int64            `json:"max_depth"`
	Counters  map[string]int64 `json:"counters"`
	// GeneratedAt is an RFC 3339 timestamp; empty in deterministic
	// test fixtures.
	GeneratedAt string `json:"generated_at,omitempty"`

	// Schema-v2 fields. All optional on read, so version-1 records
	// decode into the same struct (DisallowUnknownFields only rejects
	// extra JSON fields, never missing ones).

	// Hists holds the run's latency distributions by histogram name
	// ("cond_mine" is one sample per conditional subproblem, "query"
	// one per Mine call), with log2-bucket percentile estimates.
	Hists map[string]BenchHist `json:"hists,omitempty"`
	// MinePool summarizes the sharded mine pool's load balance.
	MinePool *BenchPool `json:"mine_pool,omitempty"`
	// GC carries the run's garbage-collection deltas.
	GC *BenchGC `json:"gc,omitempty"`
}

// BenchHist is one latency histogram's summary inside a v2 record.
// Percentiles are log2-bucket estimates (obs.Histogram), not exact
// order statistics.
type BenchHist struct {
	Count     int64   `json:"count"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// BenchShard is one mine-pool shard's accounting inside a v2 record.
type BenchShard struct {
	Queue      int64   `json:"queue"`
	Jobs       int64   `json:"jobs"`
	Steals     int64   `json:"steals"`
	StealFails int64   `json:"steal_fails"`
	BusyMillis float64 `json:"busy_ms"`
}

// BenchPool is the v2 record's mine-pool balance summary.
type BenchPool struct {
	Workers int          `json:"workers"`
	Shards  []BenchShard `json:"shards"`
	// JobsTotal and StealsTotal sum the per-shard columns; kept
	// denormalized so dashboards need no re-aggregation.
	JobsTotal   int64 `json:"jobs_total"`
	StealsTotal int64 `json:"steals_total"`
	// BusyImbalance is max/mean of per-shard busy time (1.0 = perfectly
	// balanced); the shard-balance number CI gates on.
	BusyImbalance float64 `json:"busy_imbalance"`
}

// BenchGC is the v2 record's garbage-collection delta across the mine
// call, from runtime.ReadMemStats before and after.
type BenchGC struct {
	Cycles      int64   `json:"cycles"`
	PauseMillis float64 `json:"pause_ms"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

// poolFromStats folds the recorder's mine-pool shard stats into the
// record's balance summary; nil when no pool ran.
func poolFromStats(workers int, shards []obs.ShardStat) *BenchPool {
	if len(shards) == 0 {
		return nil
	}
	p := &BenchPool{Workers: workers, Shards: make([]BenchShard, len(shards))}
	var busySum, busyMax float64
	for i, s := range shards {
		busy := float64(s.BusyNanos) / 1e6
		p.Shards[i] = BenchShard{
			Queue:      s.Queue,
			Jobs:       s.Jobs,
			Steals:     s.Steals,
			StealFails: s.StealFails,
			BusyMillis: busy,
		}
		p.JobsTotal += s.Jobs
		p.StealsTotal += s.Steals
		busySum += busy
		if busy > busyMax {
			busyMax = busy
		}
	}
	if busySum > 0 {
		p.BusyImbalance = busyMax * float64(len(shards)) / busySum
	}
	return p
}

// BenchOne mines db once with the sharded CFP-growth miner (fixed
// benchWorkers/benchShards pool, so the per-shard balance summary is
// comparable across runs) under a fresh recorder and control and
// returns the filled schema-v2 record. The control's byte ledger and
// the recorder observe the same allocation stream, so record.PeakBytes
// (taken from the control) equals the recorder's high-water mark.
func (c Config) BenchOne(name string, db dataset.Slice, relSup float64) (BenchRecord, error) {
	if err := c.Ctl.Err(); err != nil {
		return BenchRecord{}, err
	}
	counts, err := dataset.CountItems(db)
	if err != nil {
		return BenchRecord{}, err
	}
	absSup := dataset.AbsoluteSupport(relSup, counts.NumTx)
	// A private control keeps the ledger (and its peak) scoped to this
	// run even when the harness shares a Control across experiments.
	ctl := &mine.Control{}
	rec := obs.New(nil)
	g := core.Growth{
		Workers: benchWorkers,
		Shards:  benchShards,
		Track:   &mine.BudgetTracker{Ctl: ctl},
		Ctl:     ctl,
		Rec:     rec,
	}
	var sink mine.CountSink
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := g.Mine(db, absSup, &sink); err != nil {
		return BenchRecord{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	snap := rec.Snapshot()
	r := BenchRecord{
		SchemaVersion: BenchSchemaVersion,
		Dataset:       name,
		Algo:          g.Name(),
		Scale:         c.Scale,
		RelSupport:    relSup,
		AbsSupport:    absSup,
		Transactions:  counts.NumTx,
		WallMillis:    float64(wall) / 1e6,
		Phases:        make(map[string]BenchPhase, len(snap.Phases)),
		PeakBytes:     ctl.PeakBytes(),
		Itemsets:      rec.Count(obs.CtrItemsets),
		MaxDepth:      snap.MaxDepth,
		Counters:      snap.Counters,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Hists:         make(map[string]BenchHist, len(snap.Hists)),
		MinePool:      poolFromStats(benchWorkers, snap.Shards),
		GC: &BenchGC{
			Cycles:      int64(ms1.NumGC) - int64(ms0.NumGC),
			PauseMillis: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
			AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
		},
	}
	for name, ps := range snap.Phases {
		r.Phases[name] = BenchPhase{Count: ps.Count, Millis: ps.Millis(), BytesDelta: ps.Bytes}
	}
	for name, hs := range snap.Hists {
		r.Hists[name] = BenchHist{
			Count:     hs.Count,
			P50Millis: float64(hs.P50Nanos) / 1e6,
			P95Millis: float64(hs.P95Nanos) / 1e6,
			P99Millis: float64(hs.P99Nanos) / 1e6,
		}
	}
	return r, nil
}

// BenchAll benchmarks the standard datasets (Quest1 and Quest2 at the
// configured scale) at relative support 0.01 and returns one record
// per dataset.
func (c Config) BenchAll() ([]BenchRecord, error) {
	const relSup = 0.01
	var out []BenchRecord
	for _, d := range []struct {
		name string
		db   dataset.Slice
	}{
		{"quest1", c.Quest1()},
		{"quest2", c.Quest2()},
	} {
		r, err := c.BenchOne(d.name, d.db, relSup)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", d.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteBenchJSON runs BenchAll and writes each record to
// dir/BENCH_<dataset>.json, returning the paths written.
func (c Config) WriteBenchJSON(dir string) ([]string, error) {
	recs, err := c.BenchAll()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, r := range recs {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", r.Dataset))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// ValidateBenchJSON parses and validates one BENCH_*.json file,
// returning the record on success. It is the check CI's bench-smoke
// job runs over freshly generated records: ReadBenchJSON's checks plus
// the percentile invariant that a query's p99 — one sample per mine
// call — cannot exceed the record's wall time.
func ValidateBenchJSON(path string) (BenchRecord, error) {
	r, err := ReadBenchJSON(path)
	if err != nil {
		return BenchRecord{}, err
	}
	if h, ok := r.Hists[obs.HistQuery.String()]; ok && h.P99Millis > r.WallMillis {
		return BenchRecord{}, fmt.Errorf("%s: bench: %s p99 %.3f ms exceeds wall %.3f ms",
			path, obs.HistQuery, h.P99Millis, r.WallMillis)
	}
	return r, nil
}

// ReadBenchJSON parses one BENCH_*.json file and checks its internal
// consistency (ValidateBenchRecord). The regression gate reads its
// committed baselines with it: records written before histogram
// quantiles were clamped to the observed range may carry a query p99
// above their wall time, and the gate never compares that field.
func ReadBenchJSON(path string) (BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchRecord{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r BenchRecord
	if err := dec.Decode(&r); err != nil {
		return BenchRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := ValidateBenchRecord(r); err != nil {
		return BenchRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// BenchMineRegressionTolerance is the fractional mine-phase slowdown
// CompareBenchRecords tolerates before declaring a regression.
// Mine-phase wall time is the record's headline number (ROADMAP: the
// mine phase dominates end-to-end wall), so it gets the hard gate;
// the other phases are small and noisy enough that gating them would
// only produce flakes.
const BenchMineRegressionTolerance = 0.10

// BenchP99RegressionTolerance is the fractional conditional-mine p99
// slowdown CompareBenchRecords tolerates between two v2 records. The
// tail is far noisier than the phase total (one slow conditional
// subproblem moves it), so the tolerance is wide, and an absolute
// 1 ms floor below keeps microsecond-scale baselines from flaking.
const BenchP99RegressionTolerance = 0.50

// benchImbalanceFloor is the busy-imbalance ceiling CompareBenchRecords
// always allows regardless of baseline: max/mean per-shard busy under
// this is healthy stealing territory, not a scheduling regression.
const benchImbalanceFloor = 2.5

// CompareBenchRecords checks a freshly generated record against a
// committed baseline — the regression gate CI's bench-smoke job runs.
// It fails on:
//
//   - mismatched run identity (dataset, algo) or incomparable
//     parameters (scale, rel_support): the comparison would be
//     meaningless, which should fail loudly rather than pass silently;
//   - an itemset-count mismatch: the generator and miner are both
//     deterministic for fixed parameters, so any difference is a
//     correctness bug, not noise;
//   - an all-zero bytes_delta across every fresh phase: the memory
//     accounting has come unwired from the phase spans (the regression
//     this gate was introduced for — records carried zero deltas while
//     the gauges were charged outside any span);
//   - a mine-phase wall time more than BenchMineRegressionTolerance
//     above the baseline's;
//   - mixed schema versions: a v1 baseline has no percentiles or
//     balance summary to gate against, so comparing it with a v2 fresh
//     record would silently skip the v2 gates — regenerate the baseline
//     instead (a clear error here, never a degraded zero-compare);
//   - between two v2 records, a conditional-mine p99 more than
//     BenchP99RegressionTolerance above the baseline's (with a 1 ms
//     absolute floor), or a per-shard busy imbalance above both
//     2x the baseline's and benchImbalanceFloor.
func CompareBenchRecords(fresh, baseline BenchRecord) error {
	if err := ValidateBenchRecord(fresh); err != nil {
		return fmt.Errorf("bench compare: fresh record invalid: %w", err)
	}
	if err := ValidateBenchRecord(baseline); err != nil {
		return fmt.Errorf("bench compare: baseline record invalid: %w", err)
	}
	if fresh.SchemaVersion != baseline.SchemaVersion {
		return fmt.Errorf("bench compare: schema version mismatch: fresh v%d vs baseline v%d — regenerate the baseline with the current harness (cmd/experiments -json-out) instead of comparing across schema versions",
			fresh.SchemaVersion, baseline.SchemaVersion)
	}
	if fresh.Dataset != baseline.Dataset || fresh.Algo != baseline.Algo {
		return fmt.Errorf("bench compare: record identity mismatch: fresh %s/%s vs baseline %s/%s",
			fresh.Dataset, fresh.Algo, baseline.Dataset, baseline.Algo)
	}
	if fresh.Scale != baseline.Scale || fresh.RelSupport != baseline.RelSupport {
		return fmt.Errorf("bench compare: incomparable runs: fresh scale %d ξ %v vs baseline scale %d ξ %v",
			fresh.Scale, fresh.RelSupport, baseline.Scale, baseline.RelSupport)
	}
	if fresh.Itemsets != baseline.Itemsets {
		return fmt.Errorf("bench compare: %s: %d itemsets, baseline %d — deterministic run diverged",
			fresh.Dataset, fresh.Itemsets, baseline.Itemsets)
	}
	anyDelta := false
	for _, p := range fresh.Phases {
		if p.BytesDelta != 0 {
			anyDelta = true
			break
		}
	}
	if !anyDelta {
		return fmt.Errorf("bench compare: %s: every phase has bytes_delta 0 — memory accounting is unwired from the phase spans",
			fresh.Dataset)
	}
	fm, ok := fresh.Phases[obs.PhaseMine]
	if !ok {
		return fmt.Errorf("bench compare: %s: fresh record has no mine phase", fresh.Dataset)
	}
	bm, ok := baseline.Phases[obs.PhaseMine]
	if !ok {
		return fmt.Errorf("bench compare: %s: baseline record has no mine phase", fresh.Dataset)
	}
	if limit := bm.Millis * (1 + BenchMineRegressionTolerance); fm.Millis > limit {
		return fmt.Errorf("bench compare: %s: mine phase %.1f ms exceeds baseline %.1f ms by more than %.0f%%",
			fresh.Dataset, fm.Millis, bm.Millis, 100*BenchMineRegressionTolerance)
	}
	if fresh.SchemaVersion >= 2 {
		// v2-only gates: conditional-mine tail latency and shard balance.
		fh, ok := fresh.Hists[obs.HistCondMine.String()]
		if !ok {
			return fmt.Errorf("bench compare: %s: fresh record has no %s histogram", fresh.Dataset, obs.HistCondMine)
		}
		bh, ok := baseline.Hists[obs.HistCondMine.String()]
		if !ok {
			return fmt.Errorf("bench compare: %s: baseline record has no %s histogram", fresh.Dataset, obs.HistCondMine)
		}
		limit := bh.P99Millis * (1 + BenchP99RegressionTolerance)
		if floor := bh.P99Millis + 1.0; limit < floor {
			limit = floor
		}
		if fh.P99Millis > limit {
			return fmt.Errorf("bench compare: %s: %s p99 %.2f ms exceeds baseline %.2f ms beyond tolerance (limit %.2f ms)",
				fresh.Dataset, obs.HistCondMine, fh.P99Millis, bh.P99Millis, limit)
		}
		if fresh.MinePool != nil && baseline.MinePool != nil {
			limit := 2 * baseline.MinePool.BusyImbalance
			if limit < benchImbalanceFloor {
				limit = benchImbalanceFloor
			}
			if fresh.MinePool.BusyImbalance > limit {
				return fmt.Errorf("bench compare: %s: shard busy imbalance %.2f exceeds limit %.2f (baseline %.2f)",
					fresh.Dataset, fresh.MinePool.BusyImbalance, limit, baseline.MinePool.BusyImbalance)
			}
		}
	}
	return nil
}

// ValidateBenchRecord checks a record's internal consistency: schema
// version, required fields, and that the recorded phase times sum to
// no more than the total wall time (they nest inside it). Version-1
// records (committed baselines predating the percentile fields) pass
// the shared checks only; version-2 records must additionally carry a
// well-formed conditional-mine histogram, mine-pool summary, and GC
// delta.
func ValidateBenchRecord(r BenchRecord) error {
	if r.SchemaVersion != benchSchemaV1 && r.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("bench: schema_version %d, want %d or %d", r.SchemaVersion, benchSchemaV1, BenchSchemaVersion)
	}
	if r.Dataset == "" || r.Algo == "" {
		return fmt.Errorf("bench: dataset and algo are required")
	}
	if r.Transactions == 0 {
		return fmt.Errorf("bench: transactions is zero")
	}
	if r.AbsSupport == 0 {
		return fmt.Errorf("bench: abs_support is zero")
	}
	if r.PeakBytes <= 0 {
		return fmt.Errorf("bench: peak_bytes %d, want > 0", r.PeakBytes)
	}
	if r.Itemsets <= 0 {
		return fmt.Errorf("bench: itemsets %d, want > 0", r.Itemsets)
	}
	if r.WallMillis <= 0 {
		return fmt.Errorf("bench: wall_ms %v, want > 0", r.WallMillis)
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("bench: no phases recorded")
	}
	var phaseSum float64
	for name, p := range r.Phases {
		if p.Millis < 0 {
			return fmt.Errorf("bench: phase %s has negative time", name)
		}
		if name != obs.PhaseStats { // stats walks overlap other phases
			phaseSum += p.Millis
		}
	}
	// Phases nest inside the wall clock; tolerate 5% measurement slop.
	if phaseSum > r.WallMillis*1.05 {
		return fmt.Errorf("bench: phase sum %.2f ms exceeds wall %.2f ms", phaseSum, r.WallMillis)
	}
	if r.SchemaVersion < 2 {
		return nil
	}
	h, ok := r.Hists[obs.HistCondMine.String()]
	if !ok {
		return fmt.Errorf("bench: v2 record lacks the %s histogram", obs.HistCondMine)
	}
	if h.Count <= 0 {
		return fmt.Errorf("bench: %s histogram has no samples", obs.HistCondMine)
	}
	if h.P50Millis < 0 || h.P50Millis > h.P95Millis || h.P95Millis > h.P99Millis {
		return fmt.Errorf("bench: %s percentiles not monotonic: p50 %.3f p95 %.3f p99 %.3f",
			obs.HistCondMine, h.P50Millis, h.P95Millis, h.P99Millis)
	}
	if r.MinePool == nil || len(r.MinePool.Shards) == 0 {
		return fmt.Errorf("bench: v2 record lacks the mine-pool summary")
	}
	var jobs int64
	for _, s := range r.MinePool.Shards {
		jobs += s.Jobs
	}
	if jobs != r.MinePool.JobsTotal || jobs <= 0 {
		return fmt.Errorf("bench: mine-pool jobs_total %d does not match per-shard sum %d (or is zero)",
			r.MinePool.JobsTotal, jobs)
	}
	if r.MinePool.BusyImbalance < 1.0 {
		return fmt.Errorf("bench: mine-pool busy_imbalance %.3f below 1.0 (max/mean cannot be)", r.MinePool.BusyImbalance)
	}
	if r.GC == nil {
		return fmt.Errorf("bench: v2 record lacks the gc section")
	}
	if r.GC.Cycles < 0 || r.GC.PauseMillis < 0 {
		return fmt.Errorf("bench: gc deltas negative (cycles %d, pause %.3f ms)", r.GC.Cycles, r.GC.PauseMillis)
	}
	return nil
}
