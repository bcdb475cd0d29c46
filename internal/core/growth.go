package core

import (
	"math"
	"slices"
	"time"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
)

// Growth is the CFP-growth miner: FP-growth running on the CFP-tree in
// every build phase and the CFP-array in every mine phase. There is
// exactly one CFP-tree alive at any moment (it is discarded right after
// conversion, and its arena is recycled, §3.5/§4.1), while CFP-arrays
// stack up along the recursion.
type Growth struct {
	// Config tunes the CFP-tree compression features (ablations).
	Config Config
	// Track observes modeled memory consumption; nil disables tracking.
	Track mine.MemTracker
	// MaxLen, when positive, prunes the search at itemsets of that
	// cardinality: longer itemsets are neither emitted nor explored.
	MaxLen int
	// Ctl, when non-nil, is polled throughout the build, conversion and
	// mining phases: once stopped (cancellation, deadline, budget), the
	// run aborts promptly with the stop cause.
	Ctl *mine.Control
	// Rec, when non-nil, records phase spans, structure counters, and
	// modeled-byte gauges for the run (nil disables all observability
	// at the cost of one nil check per instrumentation site).
	Rec *obs.Recorder
}

// Name implements mine.Miner.
func (Growth) Name() string { return "cfpgrowth" }

// Mine implements mine.Miner.
func (g Growth) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	if err := g.Ctl.Err(); err != nil {
		return err
	}
	if g.Rec != nil {
		// One sample per Mine call: the per-query latency distribution
		// (time.Now() binds at the defer, covering every return path).
		defer g.Rec.ObserveSince(obs.HistQuery, time.Now())
	}
	track := ObservedTracker(g.Track, g.Rec)
	tree, _, err := Build(src, minSupport, g.Config, g.Ctl, track, g.Rec)
	if err != nil {
		return err
	}
	m := &cfpGrower{
		cfg:       g.Config,
		minSup:    max(minSupport, 1),
		maxLen:    g.MaxLen,
		sink:      sink,
		track:     track,
		ctl:       g.Ctl,
		rec:       g.Rec,
		treeArena: tree.arena,
	}
	return m.mineRoot(tree)
}

// FoldTreeCounters folds a finished tree's composition into the run
// counters before it is converted and recycled; four atomic adds.
func FoldTreeCounters(rec *obs.Recorder, t *Tree) {
	if rec == nil {
		return
	}
	std, chains, embedded := t.PhysNodes()
	rec.Add(obs.CtrStdNodes, int64(std))
	rec.Add(obs.CtrChainNodes, int64(chains))
	rec.Add(obs.CtrEmbeddedLeaves, int64(embedded))
	rec.Add(obs.CtrLogicalNodes, int64(t.NumNodes()))
}

// ObservedTracker composes a caller-supplied tracker with an
// observability recorder so one allocation stream feeds both; either
// side may be nil, and the result never is.
func ObservedTracker(track mine.MemTracker, rec *obs.Recorder) mine.MemTracker {
	switch {
	case rec == nil && track == nil:
		return mine.NullTracker{}
	case rec == nil:
		return track
	case track == nil:
		return rec
	default:
		return &mine.TeeTracker{A: track, B: rec}
	}
}

// MineArrayItems mines the given top-level item ranks of an
// already-materialized CFP-array (built, or deserialized with
// ReadArray) at any minimum support not below the one the array was
// built with: for each rank it emits the singleton and recurses into
// its conditional subproblem. Passing every rank, least frequent first,
// mines the whole array in the order CFP-growth's own top level does;
// this is the persistent-index entry point, with the build phase
// skipped entirely. Passing a subset is the building block of
// partitioned mining (PFP-style group-dependent shards): an itemset's
// support in a shard is exact precisely when its least frequent item
// belongs to the shard's group, so each shard mines exactly its group's
// ranks. ctl, when non-nil, makes the recursion abort promptly once
// stopped. rec, when non-nil, receives the recursion's counters and
// byte gauges; pass track and rec separately (they are teed
// internally).
func MineArrayItems(a *Array, cfg Config, minSupport uint64, sink mine.Sink, track mine.MemTracker, maxLen int, ranks []uint32, ctl *mine.Control, rec *obs.Recorder) error {
	if minSupport == 0 {
		minSupport = 1
	}
	m := &cfpGrower{
		cfg:       cfg,
		minSup:    minSupport,
		maxLen:    maxLen,
		sink:      sink,
		track:     ObservedTracker(track, rec),
		ctl:       ctl,
		rec:       rec,
		treeArena: arena.New(),
	}
	// One flat decoding of the array serves every requested rank.
	d := m.acquireDecode(a)
	defer m.releaseDecode(d)
	for _, rk := range ranks {
		if err := ctl.Err(); err != nil {
			return err
		}
		if err := m.mineTopItem(a, d, rk); err != nil {
			return err
		}
	}
	return nil
}

// cfpGrower carries the recursion state of CFP-growth.
type cfpGrower struct {
	cfg       Config
	minSup    uint64
	maxLen    int
	sink      mine.Sink
	track     mine.MemTracker
	ctl       *mine.Control // nil = never canceled
	rec       *obs.Recorder // nil = no observability
	treeArena *arena.Arena  // one CFP-tree at a time (§4.1)
	emitBuf   []uint32
	pathBuf   []uint32
	// decodeFree recycles flat decodings across sibling subproblems:
	// each recursion level owns one Decode for the CFP-array it is
	// mining, taken from (and returned to) this stack, so the number
	// of live decodings equals the recursion depth — mirroring the
	// stack of CFP-arrays themselves.
	decodeFree []*Decode
	// laneBufs are the per-lane path accumulators of the interleaved
	// ancestor walk (one per in-flight chase).
	laneBufs [walkLanes][]uint32
}

// walkLanes is the number of independent ancestor chases the pattern
// base walk keeps in flight. A pointer chase is a serial chain of
// cache misses, so a single walk leaves the memory system idle between
// steps; interleaving N independent walks overlaps their misses and
// multiplies throughput by nearly N until it saturates the machine's
// miss-level parallelism (~10 outstanding misses on current cores).
// Measured on the quest benchmarks: 8 lanes walk the same pattern
// bases ~11x faster than one.
const walkLanes = 8

// acquireDecode returns a flat decoding of a charged against the byte
// ledger, or nil when flat decoding is disabled (Config ablation) or
// the array exceeds the flat index space; a nil decode makes the
// growers below fall back to byte-at-a-time traversal.
func (m *cfpGrower) acquireDecode(a *Array) *Decode {
	if m.cfg.DisableFlatDecode {
		return nil
	}
	var d *Decode
	if n := len(m.decodeFree); n > 0 {
		d = m.decodeFree[n-1]
		m.decodeFree = m.decodeFree[:n-1]
	} else {
		d = new(Decode)
	}
	if !d.From(a) {
		m.decodeFree = append(m.decodeFree, d)
		return nil
	}
	m.track.Alloc(d.Bytes())
	return d
}

// releaseDecode returns a decode obtained from acquireDecode to the
// free stack and releases its ledger charge; nil is a no-op.
func (m *cfpGrower) releaseDecode(d *Decode) {
	if d == nil {
		return
	}
	m.track.Free(d.Bytes())
	m.decodeFree = append(m.decodeFree, d)
}

// emit sorts prefix into ascending identifier order and forwards it
// to the sink.
//
//cfplint:hot
func (m *cfpGrower) emit(prefix []uint32, support uint64) error {
	if err := m.ctl.Err(); err != nil {
		return err
	}
	m.emitBuf = append(m.emitBuf[:0], prefix...)
	slices.Sort(m.emitBuf)
	if err := m.sink.Emit(m.emitBuf, support); err != nil {
		return err
	}
	// Counted only after a successful delivery, so the counter always
	// equals the number of itemsets the sink observed — also under
	// mid-run cancellation.
	m.rec.Add(obs.CtrItemsets, 1)
	return nil
}

// mineRoot mines the initial tree, recording the top-level convert and
// mine phase spans. The caller has already charged t.Extent() to the
// byte ledger (inside the build span, so the build phase's bytes_delta
// reports the tree footprint); every charge below sits inside the span
// whose phase owns the transition, so per-phase byte deltas reflect
// the structures the phase materializes and retires.
func (m *cfpGrower) mineRoot(t *Tree) error {
	treeBytes := t.Extent()
	if t.NumItems() == 0 {
		// Nothing is frequent: retire the empty tree, nothing to mine.
		m.track.Free(treeBytes)
		return nil
	}
	if path, ok := t.SinglePath(); ok {
		sp := m.rec.Start(obs.PhaseMine)
		m.treeArena.Reset()
		m.track.Free(treeBytes)
		err := m.minePath(t, path, nil)
		sp.End()
		return err
	}
	sp := m.rec.Start(obs.PhaseConvert)
	arr, err := ConvertCtl(t, m.ctl)
	m.treeArena.Reset()
	m.track.Free(treeBytes)
	if err != nil {
		sp.End()
		return err
	}
	m.track.Alloc(arr.Bytes())
	sp.End()
	sp = m.rec.Start(obs.PhaseMine)
	err = m.mineArray(arr, nil)
	m.track.Free(arr.Bytes())
	sp.End()
	return err
}

// mineTree converts a freshly built conditional CFP-tree into a
// CFP-array and mines it. Single-path trees are enumerated directly,
// skipping conversion. In all cases the tree arena is released (reset)
// before recursing, so at most one tree is ever alive.
func (m *cfpGrower) mineTree(t *Tree, prefix []uint32) error {
	if m.rec != nil {
		// Fold this tree's composition into the run counters before it
		// is converted and recycled, and time the whole conditional
		// subproblem (this tree's conversion plus its entire recursion)
		// into the per-conditional-mine latency histogram. The deferred
		// sample covers error returns too; a disabled recorder pays
		// exactly this one nil check.
		FoldTreeCounters(m.rec, t)
		m.rec.Add(obs.CtrCondTrees, 1)
		m.rec.ObserveDepth(len(prefix))
		defer m.rec.ObserveSince(obs.HistCondMine, time.Now())
	}
	treeBytes := t.Extent()
	m.track.Alloc(treeBytes)
	if path, ok := t.SinglePath(); ok {
		m.treeArena.Reset()
		m.track.Free(treeBytes)
		return m.minePath(t, path, prefix)
	}
	arr, err := ConvertCtl(t, m.ctl)
	m.treeArena.Reset()
	m.track.Free(treeBytes)
	if err != nil {
		return err
	}
	m.track.Alloc(arr.Bytes())
	err = m.mineArray(arr, prefix)
	m.track.Free(arr.Bytes())
	return err
}

// minePath enumerates a single-path tree: every non-empty subset of the
// path is frequent with support equal to the full count of its deepest
// node; full counts along a path are suffix sums of the pcounts.
func (m *cfpGrower) minePath(t *Tree, path []PathNode, prefix []uint32) error {
	if len(path) == 0 {
		return nil
	}
	counts := make([]uint64, len(path))
	var acc uint64
	for i := len(path) - 1; i >= 0; i-- {
		acc += uint64(path[i].Pcount)
		counts[i] = acc
	}
	names := t.itemName
	var rec func(i int, prefix []uint32) error
	rec = func(i int, prefix []uint32) error {
		if m.maxLen > 0 && len(prefix) >= m.maxLen {
			return nil
		}
		for j := i; j < len(path); j++ {
			if counts[j] < m.minSup {
				// Counts are non-increasing with depth.
				return nil
			}
			prefix = append(prefix, names[path[j].Rank])
			if err := m.emit(prefix, counts[j]); err != nil {
				return err
			}
			if err := rec(j+1, prefix); err != nil {
				return err
			}
			prefix = prefix[:len(prefix)-1]
		}
		return nil
	}
	return rec(0, prefix)
}

// mineArray runs the divide-and-conquer over a CFP-array: for each item
// from least to most frequent, emit it, assemble its conditional
// pattern base, build the conditional CFP-tree (in the recycled tree
// arena), and recurse. The array is flat-decoded once up front; every
// conditional pattern base at this level walks the decoding instead of
// re-chasing varints through the byte region.
//
//cfplint:hot
func (m *cfpGrower) mineArray(a *Array, prefix []uint32) error {
	d := m.acquireDecode(a)
	var err error
	ni := a.NumItems()
	if debugChecks {
		assertf(ni <= math.MaxUint32, "core: item count %d overflows rank space", ni)
	}
	for rk := ni - 1; rk >= 0; rk-- {
		if err = m.ctl.Err(); err != nil {
			break
		}
		rank := uint32(rk)
		if a.Nodes(rank) == 0 {
			continue
		}
		sup := a.Support(rank)
		if sup < m.minSup {
			continue
		}
		prefix = append(prefix, a.ItemName(rank))
		if err = m.emit(prefix, sup); err != nil {
			break
		}
		if rk > 0 && (m.maxLen <= 0 || len(prefix) < m.maxLen) {
			cond := m.conditional(a, d, rank)
			if cond != nil {
				if err = m.mineTree(cond, prefix); err != nil {
					break
				}
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	m.releaseDecode(d)
	return err
}

// mineTopItem processes one top-level item: emit it and recurse into
// its conditional subtree. Mirrors one iteration of mineArray's loop;
// d is the (shared, read-only) flat decoding of a, or nil to fall back
// to byte-at-a-time traversal.
func (m *cfpGrower) mineTopItem(a *Array, d *Decode, rank uint32) error {
	if a.Nodes(rank) == 0 {
		return nil
	}
	sup := a.Support(rank)
	if sup < m.minSup {
		return nil
	}
	prefix := []uint32{a.ItemName(rank)}
	if err := m.emit(prefix, sup); err != nil {
		return err
	}
	if rank == 0 || (m.maxLen > 0 && len(prefix) >= m.maxLen) {
		return nil
	}
	cond := m.conditional(a, d, rank)
	if cond == nil {
		return nil
	}
	return m.mineTree(cond, prefix)
}

// conditional builds the conditional CFP-tree of item rank. With a
// flat decoding it walks decoded parent indexes; without one (ablation
// or oversized array) it falls back to the byte-chasing traversal.
// Returns nil when no conditional item is frequent.
func (m *cfpGrower) conditional(a *Array, d *Decode, rank uint32) *Tree {
	if d == nil {
		return m.conditionalScan(a, rank)
	}
	return m.conditionalFlat(a, d, rank)
}

// conditionalFlat builds the conditional CFP-tree of item rank from
// the flat decoding in two interleaved walks over the rank's run: a
// pure counting chase accumulating conditional supports, and — only
// when something is conditionally frequent — a second chase that
// collects each element's already-filtered path and inserts it into
// the conditional tree at lane completion. Infrequent ranks (the
// common case at low supports, and the owners of the deepest pattern
// bases) pay for exactly one bare chase and materialize nothing.
//
//cfplint:hot
func (m *cfpGrower) conditionalFlat(a *Array, d *Decode, rank uint32) *Tree {
	condCount := make([]uint64, rank)
	if d.wide {
		m.condCountWide(d, rank, condCount)
	} else {
		m.condCountSmall(d, rank, condCount)
	}
	any := false
	for _, c := range condCount {
		if c >= m.minSup {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	m.treeArena.Reset()
	lo, hi := d.Run(rank)
	// Presize the arena from the decoded run length: the tree holds at
	// most one path per run element, filtered paths are short at a few
	// bytes per logical node, and the reservation (retained across
	// resets) saves the grow-and-copy ramp on large conditionals.
	rn := hi - lo
	if debugChecks {
		assertf(rn >= 0, "core: inverted run bounds for rank %d", rank)
	}
	m.treeArena.Reserve(uint64(rn)*16 + 64)
	cond := NewTree(m.treeArena, m.cfg, a.itemName[:rank], condCount)
	cond.Observe(m.rec)
	if d.wide {
		m.insertBaseWide(d, rank, condCount, cond)
	} else {
		m.insertBaseSmall(d, rank, condCount, cond)
	}
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}

// condCountWide accumulates the conditional item supports of rank rk's
// pattern base over the wide-layout decoding: for every element of the
// run, every ancestor's rank receives the element's count.
//
// The chase keeps walkLanes independent walks in flight: each lane
// owns one element, advances one ancestor step per round, and on
// reaching the root takes the next element. A pointer chase is a
// serial chain of cache misses, so a single walk leaves the memory
// system idle between steps; interleaving N independent walks overlaps
// their misses and multiplies throughput by nearly N until it
// saturates the machine's miss-level parallelism (~10 outstanding
// misses on current cores — measured ~11x with 8 lanes on the quest
// pattern bases). A lane's current pointer doubles as its state: a
// real index mid-chase, the root sentinel between elements, sentinel+1
// once the run is exhausted.
//
//cfplint:hot
func (m *cfpGrower) condCountWide(d *Decode, rk uint32, condCount []uint64) {
	walk := d.walkW
	lo, hi := d.Run(rk)
	var cur [walkLanes]uint64
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = wideRoot
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= wideRoot {
				if p > wideRoot {
					continue // lane retired, run exhausted
				}
				if i < hi {
					cur[l] = walk[i] >> 32
					cnt[l] = uint64(d.sup[i])
					i++
					alive = true
				} else {
					cur[l] = wideRoot + 1
				}
				continue
			}
			w := walk[p]
			condCount[uint32(w&0xffffffff)] += cnt[l]
			cur[l] = w >> 32
			alive = true
		}
		if !alive {
			break
		}
	}
}

// condCountSmall is condCountWide over the packed 32-bit walk layout
// (parent<<8 | rank).
//
//cfplint:hot
func (m *cfpGrower) condCountSmall(d *Decode, rk uint32, condCount []uint64) {
	walk := d.walk
	lo, hi := d.Run(rk)
	var cur [walkLanes]uint32
	var cnt [walkLanes]uint64
	for l := range cur {
		cur[l] = smallRoot
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= smallRoot {
				if p > smallRoot {
					continue // lane retired, run exhausted
				}
				if i < hi {
					cur[l] = walk[i] >> 8
					cnt[l] = uint64(d.sup[i])
					i++
					alive = true
				} else {
					cur[l] = smallRoot + 1
				}
				continue
			}
			w := walk[p]
			condCount[w&0xff] += cnt[l]
			cur[l] = w >> 8
			alive = true
		}
		if !alive {
			break
		}
	}
}

// insertBaseWide re-walks rank rk's pattern base over the wide-layout
// decoding and inserts every non-empty conditionally-frequent path
// into cond. Lanes accumulate already-filtered ancestor ranks
// nearest-first; a completed lane reverses its path root-first into
// the shared path buffer and inserts it with the owning element's
// count, then takes the next element. Insertion order is the
// deterministic lane-completion order, which is a pure function of the
// decoding (tree content is insertion-order independent).
//
//cfplint:hot
func (m *cfpGrower) insertBaseWide(d *Decode, rk uint32, condCount []uint64, cond *Tree) {
	walk := d.walkW
	lo, hi := d.Run(rk)
	minSup := m.minSup
	var cur [walkLanes]uint64
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = wideRoot
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= wideRoot {
				if p > wideRoot {
					continue // lane retired, run exhausted
				}
				if own[l] >= 0 && len(m.laneBufs[l]) > 0 {
					seg := m.laneBufs[l]
					buf := m.pathBuf[:0]
					for j := len(seg) - 1; j >= 0; j-- {
						buf = append(buf, seg[j])
					}
					m.pathBuf = buf
					cond.Insert(buf, d.sup[own[l]])
				}
				if i < hi {
					cur[l] = walk[i] >> 32
					own[l] = i
					m.laneBufs[l] = m.laneBufs[l][:0]
					i++
					alive = true
				} else {
					cur[l] = wideRoot + 1
					own[l] = -1
				}
				continue
			}
			w := walk[p]
			if r := uint32(w & 0xffffffff); condCount[r] >= minSup {
				m.laneBufs[l] = append(m.laneBufs[l], r)
			}
			cur[l] = w >> 32
			alive = true
		}
		if !alive {
			break
		}
	}
}

// insertBaseSmall is insertBaseWide over the packed 32-bit walk layout
// (parent<<8 | rank).
//
//cfplint:hot
func (m *cfpGrower) insertBaseSmall(d *Decode, rk uint32, condCount []uint64, cond *Tree) {
	walk := d.walk
	lo, hi := d.Run(rk)
	minSup := m.minSup
	var cur [walkLanes]uint32
	var own [walkLanes]int32
	for l := range cur {
		cur[l] = smallRoot
		own[l] = -1
	}
	i := lo
	for {
		alive := false
		for l := 0; l < walkLanes; l++ {
			p := cur[l]
			if p >= smallRoot {
				if p > smallRoot {
					continue // lane retired, run exhausted
				}
				if own[l] >= 0 && len(m.laneBufs[l]) > 0 {
					seg := m.laneBufs[l]
					buf := m.pathBuf[:0]
					for j := len(seg) - 1; j >= 0; j-- {
						buf = append(buf, seg[j])
					}
					m.pathBuf = buf
					cond.Insert(buf, d.sup[own[l]])
				}
				if i < hi {
					cur[l] = walk[i] >> 8
					own[l] = i
					m.laneBufs[l] = m.laneBufs[l][:0]
					i++
					alive = true
				} else {
					cur[l] = smallRoot + 1
					own[l] = -1
				}
				continue
			}
			w := walk[p]
			if r := w & 0xff; condCount[r] >= minSup {
				m.laneBufs[l] = append(m.laneBufs[l], r)
			}
			cur[l] = w >> 8
			alive = true
		}
		if !alive {
			break
		}
	}
}

// conditionalScan is the byte-chasing reference construction of the
// conditional CFP-tree: two sequential scans of the rank's subarray,
// each walking parent paths backward a varint at a time. It is kept as
// the Config.DisableFlatDecode ablation and as the fallback for arrays
// past the flat index space; differential tests hold it and
// conditionalFlat to identical trees.
//
//cfplint:hot
func (m *cfpGrower) conditionalScan(a *Array, rank uint32) *Tree {
	condCount := make([]uint64, rank)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = a.PathTo(e, m.pathBuf[:0])
		for _, ar := range m.pathBuf {
			condCount[ar] += e.Count
		}
		return true
	})
	any := false
	for _, c := range condCount {
		if c >= m.minSup {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	m.treeArena.Reset()
	cond := NewTree(m.treeArena, m.cfg, a.itemName[:rank], condCount)
	cond.Observe(m.rec)
	a.ScanItem(rank, func(e Element) bool {
		m.pathBuf = a.PathTo(e, m.pathBuf[:0])
		// PathTo yields ranks nearest-first; reverse to root-first,
		// then filter to conditionally frequent items in place.
		for i, j := 0, len(m.pathBuf)-1; i < j; i, j = i+1, j-1 {
			m.pathBuf[i], m.pathBuf[j] = m.pathBuf[j], m.pathBuf[i]
		}
		w := 0
		for _, it := range m.pathBuf {
			if condCount[it] >= m.minSup {
				m.pathBuf[w] = it
				w++
			}
		}
		if w > 0 {
			c := e.Count
			if debugChecks {
				assertf(c <= math.MaxUint32, "core: path count %d overflows uint32", c)
			}
			cond.Insert(m.pathBuf[:w], uint32(c&0xffffffff))
		}
		return true
	})
	if cond.NumNodes() == 0 {
		return nil
	}
	return cond
}
