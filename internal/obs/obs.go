// Package obs is the run-level observability layer of the mining
// pipeline: phase-scoped spans carrying wall time and modeled-byte
// deltas, counters for the structures the paper measures (nodes by
// physical kind, chain splits, CFP-array triples, emitted itemsets),
// byte gauges with a high-water mark, and pluggable exporters (a JSONL
// event sink, an expvar snapshot, an opt-in HTTP endpoint with pprof).
//
// The package is stdlib-only and follows the same nil-receiver
// convention as mine.Control: every method tolerates a nil *Recorder,
// so instrumented code never branches on "is observability on" — a
// disabled run pays exactly one nil check per instrumentation site.
// Counters and gauges are atomic; a single Recorder may be shared by
// all workers of a parallel run.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names used by the miners, mirroring the paper's pipeline
// decomposition (§4.1): the item-counting scan, the tree-building
// scan, tree→array conversion, and the mining recursion. PhaseShard is
// the pfp re-sharding pass; PhaseStats covers statistics walks.
const (
	PhasePass1   = "pass1"
	PhaseBuild   = "pass2-build"
	PhaseConvert = "convert"
	PhaseMine    = "mine"
	PhaseShard   = "shard"
	PhaseStats   = "stats"
)

// Counter identifies one of the run-level counters. Counters are
// cumulative over the whole run, across all conditional subproblems
// and all workers.
type Counter int

const (
	// CtrStdNodes, CtrChainNodes and CtrEmbeddedLeaves count the
	// physical CFP-tree node representations live in each tree when it
	// is handed to the mine phase (§4.2's composition breakdown),
	// summed over the initial tree and every conditional tree.
	CtrStdNodes Counter = iota
	CtrChainNodes
	CtrEmbeddedLeaves
	// CtrLogicalNodes counts logical FP-tree nodes across all trees.
	CtrLogicalNodes
	// CtrChainSplits counts chain nodes split by a diverging or
	// mid-chain-terminating insertion; CtrChainExtends counts suffix
	// slots appended to previously suffix-less chains.
	CtrChainSplits
	CtrChainExtends
	// CtrTriples counts CFP-array triples written by conversions.
	CtrTriples
	// CtrItemsets counts itemsets successfully delivered to the sink.
	CtrItemsets
	// CtrCondTrees counts conditional trees built by the recursion.
	CtrCondTrees
	numCounters
)

// counterNames are the stable external names used in snapshots, the
// Prometheus exposition and the JSONL summary event (docs/FORMAT.md
// §6).
var counterNames = [numCounters]string{
	"std_nodes", "chain_nodes", "embedded_leaves", "logical_nodes",
	"chain_splits", "chain_extends", "triples", "itemsets", "cond_trees",
}

// String returns the counter's external name.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// PhaseStat aggregates the spans of one phase.
type PhaseStat struct {
	// Count is the number of completed spans.
	Count int64 `json:"count"`
	// Nanos is the total wall time of completed spans.
	Nanos int64 `json:"ns"`
	// Bytes is the summed modeled-byte delta (bytes gauge at span end
	// minus at span start); negative when the phase net-releases.
	Bytes int64 `json:"bytes_delta"`
}

// Millis returns the phase's total wall time in milliseconds.
func (p PhaseStat) Millis() float64 { return float64(p.Nanos) / 1e6 }

// Recorder collects one run's observability state. The zero value is
// ready to use; New additionally stamps the start time used for event
// timestamps. All methods are safe for concurrent use and tolerate a
// nil receiver (every operation becomes a no-op).
type Recorder struct {
	counters  [numCounters]atomic.Int64
	hists     [numHists]Histogram
	curBytes  atomic.Int64
	peakBytes atomic.Int64
	maxDepth  atomic.Int64

	// Runtime gauges, fed by the Sampler (sample.go).
	heapBytes    atomic.Int64
	goroutines   atomic.Int64
	numGC        atomic.Int64
	gcPauseNanos atomic.Int64
	samples      atomic.Int64

	// spanSeq allocates span ids; trace, when attached, buffers
	// completed spans hierarchically (trace.go).
	spanSeq atomic.Uint64
	trace   atomic.Pointer[Trace]

	mu      sync.Mutex
	phases  map[string]PhaseStat
	shards  []ShardStat
	workers []WorkerStat
	sink    EventSink
	start   time.Time
}

// New returns a Recorder, optionally exporting span and summary events
// to sink (nil disables the event stream; counters and phase
// aggregates still accumulate).
func New(sink EventSink) *Recorder {
	return &Recorder{sink: sink, start: time.Now()}
}

// Add increments counter c by n.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || c < 0 || c >= numCounters {
		return
	}
	r.counters[c].Add(n)
}

// Count returns the current value of counter c.
func (r *Recorder) Count(c Counter) int64 {
	if r == nil || c < 0 || c >= numCounters {
		return 0
	}
	return r.counters[c].Load()
}

// Alloc records n modeled bytes coming into use and advances the
// high-water mark. Together with Free it makes *Recorder a
// mine.MemTracker, so it can be teed into any miner's tracker chain.
func (r *Recorder) Alloc(n int64) {
	if r == nil {
		return
	}
	cur := r.curBytes.Add(n)
	for {
		peak := r.peakBytes.Load()
		if cur <= peak || r.peakBytes.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// Free records n modeled bytes released.
func (r *Recorder) Free(n int64) {
	if r != nil {
		r.curBytes.Add(-n)
	}
}

// CurBytes returns the current modeled-byte gauge.
func (r *Recorder) CurBytes() int64 {
	if r == nil {
		return 0
	}
	return r.curBytes.Load()
}

// PeakBytes returns the modeled-byte high-water mark.
func (r *Recorder) PeakBytes() int64 {
	if r == nil {
		return 0
	}
	return r.peakBytes.Load()
}

// ObserveDepth records a conditional-recursion depth; the maximum is
// kept. The fast path (depth not a new maximum) is one atomic load.
func (r *Recorder) ObserveDepth(d int) {
	if r == nil {
		return
	}
	for {
		max := r.maxDepth.Load()
		if int64(d) <= max || r.maxDepth.CompareAndSwap(max, int64(d)) {
			return
		}
	}
}

// MaxDepth returns the deepest conditional recursion observed.
func (r *Recorder) MaxDepth() int64 {
	if r == nil {
		return 0
	}
	return r.maxDepth.Load()
}

// Histogram returns the named latency histogram, or nil on a nil
// recorder or unknown name (the *Histogram methods tolerate nil, so
// call sites need no check).
func (r *Recorder) Histogram(h Hist) *Histogram {
	if r == nil || h < 0 || h >= numHists {
		return nil
	}
	return &r.hists[h]
}

// Clock returns the current time, or the zero time on a nil recorder;
// paired with ObserveSince it brackets a duration sample at the cost
// of one nil check per site when observability is off.
func (r *Recorder) Clock() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records time-since-t0 into histogram h; a nil recorder
// or a zero t0 (a Clock call on a nil recorder) records nothing.
//
// One call per conditional subproblem on the mine path: no
// allocation, no formatting.
func (r *Recorder) ObserveSince(h Hist, t0 time.Time) {
	if r == nil || h < 0 || h >= numHists || t0.IsZero() {
		return
	}
	r.hists[h].Record(time.Since(t0))
}

// ShardStat is one shard's mine-pool accounting: seeded queue depth,
// jobs executed, jobs executed by a non-owner worker (steals), failed
// steal attempts against the shard, and total busy time spent in the
// shard's jobs.
type ShardStat struct {
	Queue      int64 `json:"queue"`
	Jobs       int64 `json:"jobs"`
	Steals     int64 `json:"steals"`
	StealFails int64 `json:"steal_fails"`
	BusyNanos  int64 `json:"busy_ns"`
}

// WorkerStat is one worker's mine-pool accounting: jobs executed,
// jobs stolen from shards it does not own, time spent executing jobs,
// and idle time (pool lifetime minus busy).
type WorkerStat struct {
	Jobs      int64 `json:"jobs"`
	Steals    int64 `json:"steals"`
	BusyNanos int64 `json:"busy_ns"`
	IdleNanos int64 `json:"idle_ns"`
}

// SetMinePool attaches the sharded mine pool's per-shard and
// per-worker accounting; the slices are copied. Miners call it once
// per run after the pool drains.
func (r *Recorder) SetMinePool(shards []ShardStat, workers []WorkerStat) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.shards = append([]ShardStat(nil), shards...)
	r.workers = append([]WorkerStat(nil), workers...)
	r.mu.Unlock()
}

// MinePool returns copies of the attached mine-pool accounting (nil
// when no sharded mine ran).
func (r *Recorder) MinePool() (shards []ShardStat, workers []WorkerStat) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ShardStat(nil), r.shards...), append([]WorkerStat(nil), r.workers...)
}

// Runtime returns the sampler's latest runtime observation (zeros when
// no sampler ran).
func (r *Recorder) Runtime() RuntimeStat {
	if r == nil {
		return RuntimeStat{}
	}
	return RuntimeStat{
		Samples:      r.samples.Load(),
		HeapBytes:    r.heapBytes.Load(),
		Goroutines:   r.goroutines.Load(),
		NumGC:        r.numGC.Load(),
		GCPauseNanos: r.gcPauseNanos.Load(),
	}
}

// Span is one phase-scoped measurement in flight. The zero value (and
// any span started on a nil Recorder) is inert: End is a no-op, so
// conditional instrumentation can declare a span and start it only on
// some paths.
//
// When a Trace is attached to the recorder, every span additionally
// carries an id, a parent id, a worker index, and up to maxSpanAttrs
// key/value attributes; ended spans are buffered in the trace's
// per-worker rings and exportable as Chrome trace-event JSON. Without
// a trace, ids are not allocated and spans behave exactly as before.
type Span struct {
	rec    *Recorder
	name   string
	t0     time.Time
	bytes0 int64
	id     uint64
	parent uint64
	worker int32
	nattrs int8
	attrs  [maxSpanAttrs]Attr
}

// Start begins a root span of the named phase, capturing wall clock
// and the current byte gauge. Root spans fold into the phase
// aggregates on End; with a trace attached they also receive a span id
// and are buffered as trace events.
func (r *Recorder) Start(name string) Span {
	if r == nil {
		return Span{}
	}
	sp := Span{rec: r, name: name, t0: time.Now(), bytes0: r.curBytes.Load()}
	if r.trace.Load() != nil {
		sp.id = r.spanSeq.Add(1)
	}
	return sp
}

// StartChild begins a span nested under parent. Child spans exist for
// the trace hierarchy — per-top-item mine tasks, per-partition shard
// work — and are buffered in the trace rings only: they do not fold
// into the phase aggregates (thousands of children would distort the
// per-phase sums the bench schema validates) and do not emit JSONL
// span events. Without an attached trace, StartChild returns an inert
// span, so instrumented code pays one pointer load per site; the
// inert span's End and attribute setters are no-ops.
func (r *Recorder) StartChild(parent Span, name string) Span {
	if r == nil || r.trace.Load() == nil {
		return Span{}
	}
	return Span{
		rec:    r,
		name:   name,
		t0:     time.Now(),
		bytes0: r.curBytes.Load(),
		id:     r.spanSeq.Add(1),
		parent: parent.id,
		worker: parent.worker,
	}
}

// With attaches an integral key/value attribute (shard index,
// conditional-tree rank, partition, ...) and returns the span.
// Attributes beyond the inline capacity are dropped. Inert spans
// ignore attributes.
func (sp Span) With(key string, val int64) Span {
	if sp.rec == nil || int(sp.nattrs) >= maxSpanAttrs {
		return sp
	}
	sp.attrs[sp.nattrs] = Attr{Key: key, Val: val}
	sp.nattrs++
	return sp
}

// WithWorker pins the span (and its future children) to a worker
// index, selecting the trace ring its event is buffered in. Inert
// spans stay zero, so untraced runs compare equal to Span{}.
func (sp Span) WithWorker(w int) Span {
	if sp.rec == nil {
		return sp
	}
	sp.worker = int32(w & 0x7fffffff)
	return sp
}

// AttachTrace attaches a trace buffer; spans started afterwards are
// assigned ids and buffered on End. Attach before the run starts and
// export after it completes (Trace.Events reads unsynchronized).
func (r *Recorder) AttachTrace(t *Trace) {
	if r == nil {
		return
	}
	r.trace.Store(t)
}

// Tracing reports whether a trace buffer is attached.
func (r *Recorder) Tracing() bool {
	return r != nil && r.trace.Load() != nil
}

// End completes the span: its duration and byte delta are folded into
// the phase aggregate and, when an event sink is attached, exported as
// one "span" event. End on the zero Span is a no-op; ending the same
// span twice records it twice, so instrumented code ends every
// started span exactly once on every path.
func (sp Span) End() {
	r := sp.rec
	if r == nil {
		return
	}
	dur := time.Since(sp.t0)
	delta := r.curBytes.Load() - sp.bytes0
	if sp.id != 0 {
		if t := r.trace.Load(); t != nil {
			t.record(sp.worker, TraceEvent{
				ID:     sp.id,
				Parent: sp.parent,
				Name:   sp.name,
				Worker: sp.worker,
				Start:  sp.t0.Sub(t.epoch).Nanoseconds(),
				Dur:    int64(dur),
				NAttrs: sp.nattrs,
				Attrs:  sp.attrs,
			})
		}
	}
	if sp.parent != 0 {
		// Child spans live in the trace hierarchy only: folding
		// thousands of per-item children into the phase aggregates (or
		// the JSONL stream) would distort the per-phase sums the bench
		// schema validates against wall time.
		return
	}
	r.mu.Lock()
	if r.phases == nil {
		r.phases = make(map[string]PhaseStat)
	}
	ps := r.phases[sp.name]
	ps.Count++
	ps.Nanos += int64(dur)
	ps.Bytes += delta
	r.phases[sp.name] = ps
	sink := r.sink
	r.mu.Unlock()
	if sink != nil {
		sink.Record(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Ev:           "span",
			Name:         sp.name,
			DurNanos:     int64(dur),
			BytesDelta:   delta,
			CurBytes:     r.curBytes.Load(),
			PeakBytes:    r.peakBytes.Load(),
		})
	}
}

// Merge folds src's counters, phase aggregates, and maximum observed
// depth into r. Byte gauges are not merged: they are point-in-time
// views of an allocation stream, not deltas, and parallel runs feed
// one shared recorder's gauges directly. Sharded miners give each
// shard a private Recorder for counter attribution and fold them into
// the run recorder in shard order when the pool has drained, so the
// merged totals are independent of worker scheduling. Merge tolerates
// a nil receiver or source.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := src.counters[c].Load(); v != 0 {
			r.counters[c].Add(v)
		}
	}
	// Histograms merge bucket-wise: associative and order-independent,
	// so the shard-order fold yields the same distribution as any
	// other merge order.
	for h := Hist(0); h < numHists; h++ {
		r.hists[h].MergeFrom(&src.hists[h])
	}
	r.ObserveDepth(int(src.maxDepth.Load()))
	// Mine-pool accounting: recorders carry at most one pool per run,
	// so a source pool replaces an absent destination pool and is
	// otherwise added element-wise (shard-private recorders never carry
	// pools; this arm exists for run-over-run aggregation).
	srcShards, srcWorkers := src.MinePool()
	if len(srcShards) > 0 || len(srcWorkers) > 0 {
		r.mu.Lock()
		r.shards = mergeShardStats(r.shards, srcShards)
		r.workers = mergeWorkerStats(r.workers, srcWorkers)
		r.mu.Unlock()
	}
	// Copy out under src's lock, fold under r's: the locks are never
	// held together, so merge direction cannot deadlock.
	src.mu.Lock()
	phases := make(map[string]PhaseStat, len(src.phases))
	for k, v := range src.phases {
		phases[k] = v
	}
	src.mu.Unlock()
	if len(phases) == 0 {
		return
	}
	r.mu.Lock()
	if r.phases == nil {
		r.phases = make(map[string]PhaseStat, len(phases))
	}
	for k, v := range phases {
		ps := r.phases[k]
		ps.Count += v.Count
		ps.Nanos += v.Nanos
		ps.Bytes += v.Bytes
		r.phases[k] = ps
	}
	r.mu.Unlock()
}

// mergeShardStats folds src into dst element-wise, extending dst when
// src is longer.
func mergeShardStats(dst, src []ShardStat) []ShardStat {
	for i, s := range src {
		if i < len(dst) {
			dst[i].Queue += s.Queue
			dst[i].Jobs += s.Jobs
			dst[i].Steals += s.Steals
			dst[i].StealFails += s.StealFails
			dst[i].BusyNanos += s.BusyNanos
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}

// mergeWorkerStats is mergeShardStats for worker accounting.
func mergeWorkerStats(dst, src []WorkerStat) []WorkerStat {
	for i, s := range src {
		if i < len(dst) {
			dst[i].Jobs += s.Jobs
			dst[i].Steals += s.Steals
			dst[i].BusyNanos += s.BusyNanos
			dst[i].IdleNanos += s.IdleNanos
		} else {
			dst = append(dst, s)
		}
	}
	return dst
}

// Phases returns a copy of the per-phase aggregates.
func (r *Recorder) Phases() map[string]PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PhaseStat, len(r.phases))
	for k, v := range r.phases {
		out[k] = v
	}
	return out
}

// Snapshot is a point-in-time view of the whole recorder, shaped for
// JSON export (the expvar and /metrics payload).
type Snapshot struct {
	UptimeMillis float64              `json:"uptime_ms"`
	CurBytes     int64                `json:"cur_bytes"`
	PeakBytes    int64                `json:"peak_bytes"`
	MaxDepth     int64                `json:"max_depth"`
	Counters     map[string]int64     `json:"counters"`
	Phases       map[string]PhaseStat `json:"phases"`
	// Hists carries the latency histograms with extracted percentiles;
	// empty histograms are omitted.
	Hists map[string]HistStat `json:"hists,omitempty"`
	// Shards and Workers carry the sharded mine pool's accounting when
	// a sharded mine ran.
	Shards  []ShardStat  `json:"shards,omitempty"`
	Workers []WorkerStat `json:"workers,omitempty"`
	// Runtime is the sampler's latest observation (omitted when no
	// sampler ran).
	Runtime *RuntimeStat `json:"runtime,omitempty"`
}

// Snapshot captures the recorder's current state.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		CurBytes:  r.curBytes.Load(),
		PeakBytes: r.peakBytes.Load(),
		MaxDepth:  r.maxDepth.Load(),
		Counters:  make(map[string]int64, numCounters),
		Phases:    r.Phases(),
	}
	if !r.start.IsZero() {
		s.UptimeMillis = float64(time.Since(r.start)) / 1e6
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v != 0 {
			s.Counters[c.String()] = v
		}
	}
	for h := Hist(0); h < numHists; h++ {
		if st := r.hists[h].Stat(); st.Count > 0 {
			if s.Hists == nil {
				s.Hists = make(map[string]HistStat, numHists)
			}
			s.Hists[h.String()] = st
		}
	}
	s.Shards, s.Workers = r.MinePool()
	if rt := r.Runtime(); rt.Samples > 0 {
		s.Runtime = &rt
	}
	return s
}

// EmitSummary exports one "summary" event carrying the full snapshot;
// callers invoke it at run end so a JSONL trace is self-contained.
func (r *Recorder) EmitSummary() {
	if r == nil {
		return
	}
	r.mu.Lock()
	sink := r.sink
	r.mu.Unlock()
	if sink == nil {
		return
	}
	s := r.Snapshot()
	sink.Record(Event{
		TimeUnixNano: time.Now().UnixNano(),
		Ev:           "summary",
		CurBytes:     s.CurBytes,
		PeakBytes:    s.PeakBytes,
		MaxDepth:     s.MaxDepth,
		Counters:     s.Counters,
		Phases:       s.Phases,
		Hists:        s.Hists,
	})
}
