package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/encoding"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/quest"
)

// funcSink adapts a function to mine.Sink.
type funcSink func(items []uint32, support uint64) error

func (f funcSink) Emit(items []uint32, support uint64) error { return f(items, support) }

// The three mining paths that must agree itemset-for-itemset: the
// legacy byte-at-a-time traversal (the differential-testing reference,
// per Config.DisableFlatDecode), the flat-decode serial miner, and the
// sharded parallel miner on top of the flat decode.
func minerPaths(workers int) []struct {
	name string
	mk   func() mine.Miner
} {
	return []struct {
		name string
		mk   func() mine.Miner
	}{
		{"serial-legacy", func() mine.Miner {
			return Growth{Config: Config{DisableFlatDecode: true}}
		}},
		{"serial-flat", func() mine.Miner {
			return Growth{}
		}},
		{"sharded-parallel", func() mine.Miner {
			return Growth{Workers: workers}
		}},
		{"sharded-parallel-legacy", func() mine.Miner {
			return Growth{
				Config:  Config{DisableFlatDecode: true},
				Workers: workers,
			}
		}},
	}
}

// questFixture is one workload of the flat-decode tests: the database,
// the supports TestFlatDecodeDifferential mines it at, and the walk
// layout its top-level decoding takes at every one of them.
type questFixture struct {
	name    string
	db      dataset.Slice
	minSups []uint64
	layout  walkLayout
}

// questFixtures are laptop-scale Quest workloads, one or more per walk
// layout: the plain generator configuration plus deliberately hostile
// variants — near-total pattern corruption (long sparse noise paths),
// and heavy correlation with long patterns (deep shared prefixes that
// stress the chain and embed machinery the decoder flattens) — one
// with more than 256 frequent items, whose decodings take the 3-byte
// rank-local word, one that adds a run of more than 4,095 elements
// (longRun), which takes the 4-byte word, and one with more than 4,095
// items, which takes the 8-byte one. Support 2, the deep-recursion
// regime with dense result sets that reach every branch of the
// conditional machinery, is skipped under -short.
func questFixtures() []questFixture {
	wide := quest.Generate(quest.Config{
		NumTx: 1500, AvgTxLen: 10, NumItems: 400, Seed: 17,
	})
	return []questFixture{
		{"quest-small", quest.Generate(quest.Config{
			NumTx: 1200, AvgTxLen: 10, NumItems: 250, Seed: 7,
		}), []uint64{2, 5, 24}, layoutSmall},
		{"quest-corrupted", quest.Generate(quest.Config{
			NumTx: 1000, AvgTxLen: 8, NumItems: 150,
			CorruptionMean: 0.95, Seed: 11,
		}), []uint64{2, 5, 24}, layoutSmall},
		{"quest-correlated-deep", quest.Generate(quest.Config{
			NumTx: 800, AvgTxLen: 12, NumItems: 120,
			AvgPatternLen: 9, Correlation: 0.9, Seed: 13,
		}), []uint64{2, 5, 24}, layoutSmall},
		{"quest-wide", wide, []uint64{2, 5, 24}, layoutLocal3},
		{"long-run", longRun(), []uint64{5, 10}, layoutLocal4},
		// At support 2 the tail's pairs make the mine ~10x slower, so
		// this fixture stops at 5; the chases are the ones quest-wide
		// runs at 2, over 8-byte words.
		{"quest-wide-tail", withTail(wide, 4200, 6), []uint64{5, 6}, layoutLocal8},
	}
}

// longRun is a database of more than 256 frequent items whose
// least frequent heavy item, x, has a run of 4,200 elements: x sits
// below a distinct subset of 13 heavier items in each of 4,200
// transactions (the bits of the transaction's index), single-item
// transactions make the 13 more frequent than x, and 300 light items,
// three to a transaction in 2,000 more, push the item count past 256.
// The light items are frequent at supports up to about 10.
func longRun() dataset.Slice {
	const heavy, xTx, light = 13, 4200, 300
	const x = dataset.Item(1 << 12)
	var db dataset.Slice
	var sup [heavy]int
	for i := 0; i < xTx; i++ {
		tx := []dataset.Item{x}
		for b := 0; b < heavy; b++ {
			if i>>b&1 == 1 {
				tx = append(tx, dataset.Item(b))
				sup[b]++
			}
		}
		db = append(db, tx)
	}
	for b := range sup {
		for ; sup[b] <= xTx; sup[b]++ {
			db = append(db, []dataset.Item{dataset.Item(b)})
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		var tx []dataset.Item
		for _, j := range rng.Perm(light)[:3] {
			tx = append(tx, dataset.Item(heavy+j))
		}
		db = append(db, tx)
	}
	return db
}

// withTail returns db with numTail extra items, each added to per
// distinct transactions picked at random (seeded): items frequent at
// supports up to per that push the item count past the 4-byte
// rank-local word and hang long runs of rare ranks below the Quest
// paths.
func withTail(db dataset.Slice, numTail, per int) dataset.Slice {
	out := make(dataset.Slice, len(db))
	for i, tx := range db {
		out[i] = slices.Clone(tx)
	}
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < numTail; f++ {
		item := dataset.Item(1<<20 + f)
		for k := 0; k < per; {
			t := rng.Intn(len(out))
			if !slices.Contains(out[t], item) {
				out[t] = append(out[t], item)
				k++
			}
		}
	}
	return out
}

// TestFlatDecodeDifferential requires the legacy, flat-decode, and
// sharded parallel miners to emit exactly the same itemsets with the
// same supports on every fixture, across support thresholds that span
// dense and sparse result sets, and checks that each fixture's
// top-level decoding takes the walk layout the fixture is meant to
// cover.
func TestFlatDecodeDifferential(t *testing.T) {
	for _, fx := range questFixtures() {
		for _, minSup := range fx.minSups {
			if minSup == 2 && testing.Short() {
				continue
			}
			var d Decode
			if !d.From(buildArrayAt(t, fx.db, minSup)) || d.layout != fx.layout {
				t.Fatalf("%s minSup %d: decode layout = %d, want %d", fx.name, minSup, d.layout, fx.layout)
			}
			var want []mine.Itemset
			for i, p := range minerPaths(4) {
				got, err := mine.Run(p.mk(), fx.db, minSup)
				if err != nil {
					t.Fatalf("%s minSup %d %s: %v", fx.name, minSup, p.name, err)
				}
				if i == 0 {
					want = got
					if len(want) == 0 {
						t.Fatalf("%s minSup %d: reference found nothing; fixture too weak", fx.name, minSup)
					}
					continue
				}
				if d := mine.Diff(p.name, got, "serial-legacy", want); d != "" {
					t.Fatalf("%s minSup %d:\n%s", fx.name, minSup, d)
				}
			}
		}
	}
}

// TestFlatDecodeDifferentialMaxLen repeats the agreement check under
// cardinality pruning, which exercises the early-return edges of the
// conditional recursion.
func TestFlatDecodeDifferentialMaxLen(t *testing.T) {
	db := questFixtures()[0].db
	for _, maxLen := range []int{1, 2, 3} {
		want, err := mine.Run(Growth{Config: Config{DisableFlatDecode: true}, MaxLen: maxLen}, db, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []func() ([]mine.Itemset, error){
			func() ([]mine.Itemset, error) { return mine.Run(Growth{MaxLen: maxLen}, db, 4) },
			func() ([]mine.Itemset, error) {
				return mine.Run(Growth{Workers: 3, MaxLen: maxLen}, db, 4)
			},
		} {
			sets, err := got()
			if err != nil {
				t.Fatal(err)
			}
			if d := mine.Diff("variant", sets, "serial-legacy", want); d != "" {
				t.Fatalf("maxLen %d:\n%s", maxLen, d)
			}
		}
	}
}

// TestFlatDecodeMaxItemsets checks the MaxItemsets budget on every
// path: the run stops with ErrBudgetExceeded, and the inner sink never
// sees an itemset past the limit — even with several workers in
// flight, since the check-then-emit pair is atomic under the parallel
// miner's sink mutex.
func TestFlatDecodeMaxItemsets(t *testing.T) {
	db := questFixtures()[0].db
	for _, p := range minerPaths(4) {
		for _, max := range []uint64{1, 10, 100} {
			ctl := &mine.Control{}
			var inner mine.CountSink
			sink := &mine.ControlSink{Inner: &mine.SyncSink{Inner: &inner}, Ctl: ctl, Max: max}
			var m mine.Miner
			switch g := p.mk().(type) {
			case Growth:
				g.Ctl = ctl
				m = g
			}
			err := m.Mine(db, 2, sink)
			if !errors.Is(err, mine.ErrBudgetExceeded) {
				t.Fatalf("%s max %d: err = %v, want ErrBudgetExceeded", p.name, max, err)
			}
			if inner.N > max {
				t.Errorf("%s max %d: inner sink saw %d itemsets", p.name, max, inner.N)
			}
		}
	}
}

// TestFlatDecodeCancellationMidMine stops the run from inside the sink
// after a handful of emissions and requires every path to return the
// stop cause with no emissions after the stop.
func TestFlatDecodeCancellationMidMine(t *testing.T) {
	db := questFixtures()[0].db
	cause := fmt.Errorf("flatdiff: induced mid-mine stop")
	for _, p := range minerPaths(4) {
		ctl := &mine.Control{}
		var seen, after atomic.Uint64
		sink := funcSink(func(items []uint32, support uint64) error {
			if ctl.Err() != nil {
				after.Add(1)
				return ctl.Err()
			}
			if seen.Add(1) == 5 {
				ctl.Stop(cause)
			}
			return nil
		})
		var m mine.Miner
		switch g := p.mk().(type) {
		case Growth:
			g.Ctl = ctl
			m = g
		}
		err := m.Mine(db, 2, sink)
		if !errors.Is(err, cause) {
			t.Fatalf("%s: err = %v, want the induced stop cause", p.name, err)
		}
		if after.Load() != 0 {
			t.Errorf("%s: %d emissions reached the sink after the stop", p.name, after.Load())
		}
	}
}

// TestSupportOfAgreesWithMinedSupports cross-checks the SupportOf
// point query (with its batch-decoded run scan and length guard)
// against every itemset the miner emits, plus guard edge cases.
func TestSupportOfAgreesWithMinedSupports(t *testing.T) {
	db := questFixtures()[1].db
	arr := buildArrayFor(t, db)
	sets, err := mine.Run(Growth{}, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	rank := rankIndex(arr)
	checked := 0
	for _, s := range sets {
		ranks := make([]uint32, len(s.Items))
		for i, it := range s.Items {
			ranks[i] = rank[it]
		}
		sortRanks(ranks)
		if got := arr.SupportOf(ranks); got != s.Support {
			t.Fatalf("SupportOf(%v) = %d, mined support %d", s.Items, got, s.Support)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no itemsets to cross-check")
	}
	// Length guard: more members than last+1 can never be covered.
	if got := arr.SupportOf([]uint32{0, 1, 2, 2}); got != 0 {
		// ranks[3]=2 < len-1=3: guard must reject without scanning.
		t.Errorf("length guard missed: got %d", got)
	}
	if got := arr.SupportOf(nil); got != 0 {
		t.Errorf("SupportOf(nil) = %d", got)
	}
	if got := arr.SupportOf([]uint32{uint32(arr.NumItems())}); got != 0 {
		t.Errorf("out-of-range rank: got %d", got)
	}
}

// buildArrayFor builds db's CFP-array at minimum support 4, matching
// the mining threshold the cross-check runs at.
func buildArrayFor(t *testing.T, db dataset.Slice) *Array {
	t.Helper()
	return buildArrayAt(t, db, 4)
}

// buildArrayAt builds db's CFP-array at the given minimum support.
func buildArrayAt(t *testing.T, db dataset.Slice, minSup uint64) *Array {
	t.Helper()
	tree, _, err := Build(db, minSup, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Convert(tree)
}

// TestDecodeBytes pins the modeled footprint of a flat decoding, in
// every layout, to the structure From builds: one walk word per element,
// 4 bytes in the small and 4-byte rank-local layouts, 3 bytes and one
// pad byte in the 3-byte one and 8 in the 8-byte one, plus the 4-byte
// start table over NumItems+1 ranks; no per-element support or offset
// array. decodeBytes, the admission charge known before From, must
// equal it.
func TestDecodeBytes(t *testing.T) {
	fixtures := questFixtures()
	for _, fx := range []int{0, 3, 4, 5} {
		f := fixtures[fx]
		a := buildArrayAt(t, f.db, 5)
		var d Decode
		if !d.From(a) {
			t.Fatalf("%s: From failed", f.name)
		}
		n, items := int64(a.NumNodes()), int64(a.NumItems())
		word, pad := int64(4), int64(0)
		switch f.layout {
		case layoutLocal3:
			word, pad = 3, 1
		case layoutLocal8:
			word = 8
		}
		if d.layout != f.layout || d.NumElems() != a.NumNodes() {
			t.Fatalf("%s: layout %d with %d elements, want layout %d with %d", f.name, d.layout, d.NumElems(), f.layout, n)
		}
		held := int64(len(d.walk))*int64(unsafe.Sizeof(d.walk[0])) +
			int64(len(d.walk3)) +
			int64(len(d.walkW))*int64(unsafe.Sizeof(d.walkW[0])) +
			int64(len(d.start))*int64(unsafe.Sizeof(d.start[0]))
		if got, want := d.Bytes(), word*n+pad+4*(items+1); got != want || got != held {
			t.Errorf("%s: Bytes() = %d, want %d·%d + %d + 4·(%d+1) = %d, the held slices %d", f.name, got, word, n, pad, items, want, held)
		}
		if got := decodeBytes(a); got != d.Bytes() {
			t.Errorf("%s: decodeBytes = %d, Bytes() after From = %d", f.name, got, d.Bytes())
		}
	}
	var zero Decode
	if b := zero.Bytes(); b != 0 {
		t.Errorf("zero Decode: Bytes() = %d, want 0", b)
	}
}

// TestWalkLayoutLimits checks layoutOf at the edges of each walk word:
// the small word's 256 items and 2^24-2 elements, the rank-local words'
// 4,095 items, and the 3-byte word's runs of 4,095 elements and the
// 4-byte word's of 2^20-1.
func TestWalkLayoutLimits(t *testing.T) {
	arr := func(runs ...int) *Array {
		a := &Array{nodes: runs, itemName: make([]uint32, len(runs))}
		for _, k := range runs {
			a.numNodes += k
		}
		return a
	}
	items := func(k int) *Array { return arr(make([]int, k)...) }
	short := make([]int, 17)
	for i := range short {
		short[i] = 1<<20 - 1
	}
	for _, c := range []struct {
		name string
		a    *Array
		want walkLayout
	}{
		{"256 items", items(256), layoutSmall},
		{"256 items, a run of 4096", arr(append([]int{1 << 12}, make([]int, 255)...)...), layoutSmall},
		{"257 items", items(257), layoutLocal3},
		{"4095 items", items(4095), layoutLocal3},
		{"4096 items", items(4096), layoutLocal8},
		{"2^24-2 elements", arr(smallRoot - 1), layoutSmall},
		{"2^24-1 elements", arr(smallRoot), layoutLocal8},
		{"2^24-1 elements in short runs", arr(short...), layoutLocal4},
		{"257 items, a run of 4095", arr(append([]int{1<<12 - 1}, make([]int, 256)...)...), layoutLocal3},
		{"257 items, a run of 4096", arr(append([]int{1 << 12}, make([]int, 256)...)...), layoutLocal4},
		{"4095 items, a run of 4095", arr(append([]int{1<<12 - 1}, make([]int, 4094)...)...), layoutLocal3},
		{"4095 items, a run of 4096", arr(append([]int{1 << 12}, make([]int, 4094)...)...), layoutLocal4},
		{"257 items, a run of 2^20-1", arr(append([]int{1<<20 - 1}, make([]int, 256)...)...), layoutLocal4},
		{"257 items, a run of 2^20", arr(append([]int{1 << 20}, make([]int, 256)...)...), layoutLocal8},
	} {
		if got := layoutOf(c.a); got != c.want {
			t.Errorf("%s: layoutOf = %d, want %d", c.name, got, c.want)
		}
	}
}

// shuffledArray re-encodes a with the elements of every subarray in a
// seeded random order and loads the result through ReadArray, the
// trust boundary that accepts any order in which parents resolve. The
// tree is unchanged, but children no longer meet their parents in the
// depth-first order Convert writes.
func shuffledArray(t *testing.T, a *Array) *Array {
	t.Helper()
	type node struct {
		pr, pj int // parent rank and index within its subarray; pj < 0 at the root
		delta  uint64
		count  uint64
	}
	numItems := a.NumItems()
	nodes := make([][]node, numItems)
	index := make([]map[uint64]int, numItems)
	for rk := range nodes {
		index[rk] = map[uint64]int{}
		a.ScanItem(uint32(rk), func(e Element) bool {
			nd := node{pj: -1, delta: uint64(e.Delta), count: e.Count}
			if e.HasParent() {
				nd.pr = int(e.ParentRank())
				nd.pj = index[nd.pr][e.ParentLocal()]
			}
			index[rk][e.Local] = len(nodes[rk])
			nodes[rk] = append(nodes[rk], nd)
			return true
		})
	}
	out := &Array{
		itemName: a.itemName,
		support:  a.support,
		nodes:    a.nodes,
		numNodes: a.numNodes,
		starts:   make([]uint64, numItems+1),
	}
	locals := make([][]uint64, numItems)
	var tmp [3 * encoding.MaxVarintLen64]byte
	rng := rand.New(rand.NewSource(1))
	for rk, ns := range nodes {
		base := len(out.data)
		out.starts[rk] = uint64(base)
		locals[rk] = make([]uint64, len(ns))
		for _, j := range rng.Perm(len(ns)) {
			nd := ns[j]
			local := uint64(len(out.data) - base)
			locals[rk][j] = local
			var dpos int64
			if nd.pj >= 0 {
				dpos = int64(local) - int64(locals[nd.pr][nd.pj])
			}
			k := encoding.PutUvarint(tmp[:], nd.delta)
			k += encoding.PutUvarint(tmp[k:], encoding.Zigzag(dpos))
			k += encoding.PutUvarint(tmp[k:], nd.count)
			out.data = append(out.data, tmp[:k]...)
		}
	}
	out.starts[numItems] = uint64(len(out.data))
	var buf bytes.Buffer
	if _, err := out.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rev, err := ReadArray(&buf)
	if err != nil {
		t.Fatalf("ReadArray rejected the reordered array: %v", err)
	}
	return rev
}

// parentDescents counts the elements whose parent lies before the
// parent of the previous element of the same rank with a parent of the
// same rank: each is a lookup the forward-only cursor cannot serve,
// so Decode.From resolves it by the fallback search.
func parentDescents(a *Array) int {
	n := 0
	for rk := 0; rk < a.NumItems(); rk++ {
		last := map[uint32]uint64{}
		a.ScanItem(uint32(rk), func(e Element) bool {
			if !e.HasParent() {
				return true
			}
			pr, pl := e.ParentRank(), e.ParentLocal()
			if prev, ok := last[pr]; ok && pl < prev {
				n++
			}
			last[pr] = pl
			return true
		})
	}
	return n
}

// treeDump is a canonical rendering of a CFP-tree: its depth-first
// Enter/Leave sequence, siblings ascending.
type treeDump []int64

func (d *treeDump) Enter(rank uint32, pcount uint32) {
	*d = append(*d, int64(rank), int64(pcount))
}
func (d *treeDump) Leave() { *d = append(*d, -1) }

// TestFlatDecodeOutOfOrderParents loads arrays whose children are not
// in depth-first order, in every walk layout, and requires
// conditionalFlat over their decoding to reach, for every rank, the
// same leaf verdict and build the same conditional tree as the
// byte-chasing conditionalScan, and the whole mine to match the
// original array's.
func TestFlatDecodeOutOfOrderParents(t *testing.T) {
	const minSup = 5
	fixtures := questFixtures()
	for _, fx := range []int{0, 3, 4, 5} {
		f := fixtures[fx]
		orig := buildArrayAt(t, f.db, minSup)
		a := shuffledArray(t, orig)
		if parentDescents(a) == 0 {
			t.Fatalf("%s: reordered array has no out-of-order parent", f.name)
		}
		var d Decode
		if !d.From(a) || d.layout != f.layout {
			t.Fatalf("%s: From = false or layout %d, want %d", f.name, d.layout, f.layout)
		}
		flat := &cfpGrower{minSup: minSup, track: mine.NullTracker{}, treeArena: arena.New()}
		scan := &cfpGrower{minSup: minSup, track: mine.NullTracker{}, treeArena: arena.New()}
		for rk := uint32(0); rk < uint32(a.NumItems()); rk++ {
			ft, fl := flat.conditionalFlat(a, &d, rk, a.Support(rk), false)
			st, sl := scan.conditionalScan(a, rk, a.Support(rk), false)
			if (ft == nil) != (st == nil) || fl != sl {
				t.Fatalf("%s rank %d: flat tree nil %v leaf %v, scan tree nil %v leaf %v", f.name, rk, ft == nil, fl, st == nil, sl)
			}
			if ft == nil {
				continue
			}
			var fd, sd treeDump
			ft.Walk(&fd)
			st.Walk(&sd)
			if !slices.Equal(fd, sd) {
				t.Fatalf("%s rank %d: conditional trees differ", f.name, rk)
			}
		}
		var want, got mine.CollectSink
		if err := MineArrayItems(orig, Config{}, minSup, &want, nil, 0, AllRanks(orig), nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := MineArrayItems(a, Config{}, minSup, &got, nil, 0, AllRanks(a), nil, nil); err != nil {
			t.Fatal(err)
		}
		mine.Canonicalize(want.Sets)
		mine.Canonicalize(got.Sets)
		if diff := mine.Diff("reordered", got.Sets, "original", want.Sets); diff != "" {
			t.Fatalf("%s:\n%s", f.name, diff)
		}
	}
}

func rankIndex(a *Array) map[uint32]uint32 {
	m := make(map[uint32]uint32, a.NumItems())
	for rk := 0; rk < a.NumItems(); rk++ {
		m[a.ItemName(uint32(rk))] = uint32(rk)
	}
	return m
}

func sortRanks(r []uint32) {
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j] < r[j-1]; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// walkPath appends the ranks of element i's ancestors, nearest first,
// chased through d's walk words one word at a time: the reference
// reading of every layout, which decodes layoutLocal3's words byte by
// byte.
func walkPath(d *Decode, i int32, buf []uint32) []uint32 {
	if d.layout == layoutSmall {
		for p := d.walk[i] >> 8; p != smallRoot; p = d.walk[p] >> 8 {
			buf = append(buf, d.walk[p]&0xff)
		}
		return buf
	}
	word := func(j int32) uint64 {
		switch d.layout {
		case layoutLocal3:
			b := d.walk3[3*j : 3*j+3]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16
		case layoutLocal4:
			return uint64(d.walk[j])
		}
		return d.walkW[j]
	}
	// The root is the all-ones word of the layout's width.
	shift, root := uint(12), uint64(1<<12-1)
	switch d.layout {
	case layoutLocal4:
		shift = 20
	case layoutLocal8:
		shift, root = 32, 1<<32-1
	}
	for w := word(i); w>>shift != root; w = word(d.start[w>>shift] + int32(w&(1<<shift-1))) {
		buf = append(buf, uint32(w>>shift))
	}
	return buf
}

// TestPathChaseTrim checks the path chase's trim: a lane ends once its
// walk passes below the lowest conditionally frequent rank, so for
// every random pattern base, in every layout that fits its array, the
// multiset of (filtered path, count) the chase hands over must be the
// same with the trim as without it (floor 0). The trim must be taken,
// and some path must be cut short by it.
func TestPathChaseTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	handed := func(d *Decode, m *cfpGrower, a *Array, top uint32, condCount []uint64, floor uint32) map[string]int {
		out := map[string]int{}
		lo, hi := d.Run(top)
		d.pathsRun(m, a.runCounts(top, nil), lo, hi, condCount, floor, func(path []uint32, c uint64) bool {
			out[fmt.Sprint(path, c)]++
			return false
		})
		return out
	}
	var trimmed, cut int
	for trial := 0; trial < 300; trial++ {
		pb := randomPatternBase(rng)
		a := pb.array()
		m := &cfpGrower{minSup: uint64(1 + rng.Intn(8))}
		for l := layoutSmall; l <= layoutLocal8; l++ {
			if !layoutFits(a, l) {
				continue
			}
			var d Decode
			if !d.fromLayout(a, l) {
				t.Fatalf("trial %d layout %d: From = false", trial, l)
			}
			condCount := make([]uint64, pb.top)
			lo, hi := d.Run(pb.top)
			d.countRun(a.runCounts(pb.top, nil), lo, hi, condCount)
			floor := m.frequentFloor(condCount)
			if floor == pb.top {
				continue
			}
			want := handed(&d, m, a, pb.top, condCount, 0)
			got := handed(&d, m, a, pb.top, condCount, floor)
			if !maps.Equal(got, want) {
				t.Fatalf("trial %d layout %d floor %d: trimmed chase handed %v, untrimmed %v", trial, l, floor, got, want)
			}
			if floor > 0 {
				trimmed++
				for i := lo; i < hi; i++ {
					if p := walkPath(&d, i, nil); len(p) > 0 && p[len(p)-1] < floor {
						cut++
						break
					}
				}
			}
		}
	}
	if trimmed == 0 || cut == 0 {
		t.Fatalf("trim not exercised: %d chases with a floor, %d with a path below it", trimmed, cut)
	}
}
