package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cfpgrowth/internal/arena"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
	"cfpgrowth/internal/synth"
)

// patternBase is a random pattern base of the item at rank top: paths
// of ranks below top, root-first, with their counts.
type patternBase struct {
	top    uint32
	paths  [][]uint32
	counts []uint64
}

// randomPatternBase draws a pattern base whose size, item universe,
// path length and counts vary widely, so the conditionals it yields
// range from empty to dense, and from a few frequent items to more
// than maxPairItems.
func randomPatternBase(rng *rand.Rand) patternBase {
	top := []uint32{12, 40, 120, 300}[rng.Intn(4)]
	universe := rng.Perm(int(top))[:1+rng.Intn(int(top))]
	pathLen := []float64{1, 2, 4, 10}[rng.Intn(4)]
	pb := patternBase{top: top}
	for n := 1 + rng.Intn(200); n > 0; n-- {
		var p []uint32
		for _, it := range universe {
			if rng.Float64()*float64(len(universe)) < pathLen {
				p = append(p, uint32(it))
			}
		}
		slices.Sort(p)
		pb.paths = append(pb.paths, p)
		pb.counts = append(pb.counts, uint64(1+rng.Intn(3)))
	}
	return pb
}

// array converts the pattern base into the CFP-array of a tree holding
// each path extended by top.
func (pb patternBase) array() *Array {
	names := make([]uint32, pb.top+1)
	for i := range names {
		names[i] = uint32(i)
	}
	tree := NewTree(arena.New(), Config{}, names)
	for i, p := range pb.paths {
		tree.Insert(append(slices.Clone(p), pb.top), uint32(pb.counts[i]))
	}
	return Convert(tree)
}

// TestLeafVerdictMatchesPairCounts checks the leaf test of both
// conditional builders against brute-force pair counts on random
// pattern bases: a conditional is a leaf exactly when at least one item
// and no pair is conditionally frequent, except that past maxPairItems
// frequent items the tree is built untested, and at the MaxLen boundary
// every non-empty conditional is a leaf. Fed the pattern base's filtered
// paths directly, the pair chase must stop at the path that makes the
// first pair frequent, and the pair matrix must be charged only while
// the chase runs. Every branch of the test must be taken.
func TestLeafVerdictMatchesPairCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var kLeq1, shortcut, earlyStop, chasedLeaf, bound int
	for trial := 0; trial < 600; trial++ {
		pb := randomPatternBase(rng)
		minSup := uint64(1 + rng.Intn(8))
		// Brute force: conditional supports, then pair supports in
		// path order, noting the path that makes a pair frequent first.
		var sup uint64
		cond := make([]uint64, pb.top)
		for i, p := range pb.paths {
			sup += pb.counts[i]
			for _, r := range p {
				cond[r] += pb.counts[i]
			}
		}
		var k int
		var c1, c2 uint64
		for _, c := range cond {
			if c >= minSup {
				k++
				c1, c2 = max(c1, c), max(c2, min(c1, c))
			}
		}
		pairs := map[[2]uint32]uint64{}
		firstPair := -1
		var filtered [][]uint32 // frequent items, nearest-first
		for i, p := range pb.paths {
			var f []uint32
			for j := len(p) - 1; j >= 0; j-- {
				if cond[p[j]] >= minSup {
					f = append(f, p[j])
				}
			}
			filtered = append(filtered, f)
			for x := range f {
				for _, y := range f[x+1:] {
					pairs[[2]uint32{f[x], y}] += pb.counts[i]
					if pairs[[2]uint32{f[x], y}] >= minSup && firstPair < 0 {
						firstPair = i
					}
				}
			}
		}
		wantTree := firstPair >= 0 || k > maxPairItems
		wantLeaf := k >= 1 && !wantTree
		switch {
		case k <= 1:
			kLeq1++
		case c1+c2 >= sup+minSup:
			shortcut++
		case k > maxPairItems:
			bound++
		case firstPair >= 0:
			earlyStop++
		default:
			chasedLeaf++
		}

		a := pb.array()
		if a.Support(pb.top) != sup {
			t.Fatalf("trial %d: support %d, want %d", trial, a.Support(pb.top), sup)
		}
		var d Decode
		if !d.From(a) {
			t.Fatalf("trial %d: From = false", trial)
		}
		for _, boundary := range []bool{false, true} {
			want := wantLeaf
			if boundary {
				want = k >= 1
			}
			for _, build := range []string{"flat", "scan"} {
				track := &mine.Control{}
				m := &cfpGrower{minSup: minSup, track: track, treeArena: arena.New()}
				var tree *Tree
				var leaf bool
				if build == "flat" {
					tree, leaf = m.conditionalFlat(a, &d, pb.top, sup, boundary)
				} else {
					tree, leaf = m.conditionalScan(a, pb.top, sup, boundary)
				}
				if leaf != want || (tree != nil) != (!boundary && wantTree) {
					t.Fatalf("trial %d %s boundary %v (k %d, first frequent pair at path %d): tree %v leaf %v, want leaf %v",
						trial, build, boundary, k, firstPair, tree != nil, leaf, want)
				}
				if leaf && !slices.Equal(m.condBuf, cond) {
					t.Fatalf("trial %d %s: leaf supports %v, want %v", trial, build, m.condBuf, cond)
				}
				if track.Bytes() != 0 {
					t.Fatalf("trial %d %s: %d bytes left charged", trial, build, track.Bytes())
				}
			}
		}

		// The pair chase alone, fed the filtered paths in order.
		if k < 2 || c1+c2 >= sup+minSup || k > maxPairItems {
			continue
		}
		track := &mine.Control{}
		m := &cfpGrower{minSup: minSup, track: track}
		fed := 0
		v := m.leafVerdict(cond, sup, false, func(visit func([]uint32, uint64) bool) bool {
			for i, f := range filtered {
				fed++
				if visit(f, pb.counts[i]) {
					return true
				}
			}
			return false
		})
		wantV, wantFed := condLeaf, len(filtered)
		if firstPair >= 0 {
			wantV, wantFed = condTree, firstPair+1
		}
		if v != wantV || fed != wantFed {
			t.Fatalf("trial %d: verdict %d after %d paths, want %d after %d", trial, v, fed, wantV, wantFed)
		}
		if cells := int64(k*(k-1)/2) * 8; track.PeakBytes() != cells || track.Bytes() != 0 {
			t.Fatalf("trial %d: matrix charge peak %d, left %d; want %d, 0", trial, track.PeakBytes(), track.Bytes(), cells)
		}
	}
	t.Logf("k<=1 %d, shortcut %d, early stop %d, chased leaf %d, bound %d", kLeq1, shortcut, earlyStop, chasedLeaf, bound)
	if kLeq1 == 0 || shortcut == 0 || earlyStop == 0 || chasedLeaf == 0 || bound == 0 {
		t.Fatalf("a branch of the leaf test was not taken: k<=1 %d, shortcut %d, early stop %d, chased leaf %d, bound %d",
			kLeq1, shortcut, earlyStop, chasedLeaf, bound)
	}
}

// TestDenseLeavesConvertNothing mines synth accidents at 1/40 scale at
// ξ = 45%, where no triple is frequent: every conditional is a leaf, so
// the only CFP-array converted is the top-level one (the recorder's
// triples equal its node count), and the answer is the brute-force one.
// Its 34 frequent items are past mine.BruteForce's limit, so the
// reference is bruteForceLevels.
func TestDenseLeavesConvertNothing(t *testing.T) {
	p, ok := synth.ByName("accidents")
	if !ok {
		t.Fatal("no accidents profile")
	}
	db := p.Generate(40)
	minSup := dataset.AbsoluteSupport(0.45, uint64(len(db)))
	rec := obs.New(nil)
	var got mine.CollectSink
	if err := (Growth{Rec: rec}).Mine(db, minSup, &got); err != nil {
		t.Fatal(err)
	}
	tree, _, err := Build(db, minSup, Config{}, nil, mine.NullTracker{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if triples, nodes := rec.Count(obs.CtrTriples), int64(Convert(tree).NumNodes()); triples != nodes {
		t.Errorf("triples %d, top-level array nodes %d: a conditional array was converted", triples, nodes)
	}
	if rec.Count(obs.CtrCondTrees) == 0 {
		t.Error("no conditional counted")
	}
	want := bruteForceLevels(db, minSup)
	mine.Canonicalize(got.Sets)
	if d := mine.Diff("cfpgrowth", got.Sets, "bruteforce", want); d != "" {
		t.Fatal(d)
	}
}

// bruteForceLevels mines db by counting every k-subset of the frequent
// items, for k = 1, 2, ..., with one transaction bitset per item, and
// stops at the first k at which no subset is frequent: a superset of an
// infrequent set is infrequent. The result is canonical.
func bruteForceLevels(db dataset.Slice, minSup uint64) []mine.Itemset {
	words := (len(db) + 63) / 64
	tids := map[uint32][]uint64{}
	for i, tx := range db {
		for _, it := range tx {
			if tids[it] == nil {
				tids[it] = make([]uint64, words)
			}
			tids[it][i/64] |= 1 << (i % 64)
		}
	}
	support := func(items []uint32) uint64 {
		var n int
		for w := 0; w < words; w++ {
			x := ^uint64(0)
			for _, it := range items {
				x &= tids[it][w]
			}
			n += bits.OnesCount64(x)
		}
		return uint64(n)
	}
	var frequent []uint32
	for it := range tids {
		if support([]uint32{it}) >= minSup {
			frequent = append(frequent, it)
		}
	}
	slices.Sort(frequent)
	var out []mine.Itemset
	for k := 1; k <= len(frequent); k++ {
		n := len(out)
		// Every k-combination of frequent, in lexicographic order.
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			items := make([]uint32, k)
			for i, j := range idx {
				items[i] = frequent[j]
			}
			if s := support(items); s >= minSup {
				out = append(out, mine.Itemset{Items: items, Support: s})
			}
			i := k - 1
			for i >= 0 && idx[i] == len(frequent)-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
		if len(out) == n {
			break
		}
	}
	mine.Canonicalize(out)
	return out
}

// batchEdgeBase is a pattern base built around the pair batch's edges
// (TestPairBatchEdges). Its n pair paths all hold ranks 0 and 1, the
// hot pair, plus random ranks below k, so the hot cell is the largest
// and equals the running sum of the path counts: a minSup equal to that
// sum after path stop makes the first frequent pair appear exactly at
// stop, and one past the full sum makes the conditional a leaf. Single
// paths then raise every rank below k to minSup, and paths with no
// frequent rank pad the support past the inclusion–exclusion shortcut.
// Pair paths, and pieces of a single or a pad beyond its first, carry a
// tag rank of their own: an infrequent rank below every frequent one,
// so each starts its own branch of the tree, and no node sums two
// counts that may pass 32 bits together.
type batchEdgeBase struct {
	pb          patternBase
	cond        []uint64
	sup, minSup uint64
	// feed is the filtered paths nearest-first, the pair paths in order
	// and then the singles, with their counts.
	feed    [][]uint32
	feedCnt []uint64
}

func newBatchEdgeBase(t *testing.T, rng *rand.Rand, k, n int, count func(i int) uint64, stop int) batchEdgeBase {
	t.Helper()
	var b batchEdgeBase
	var pairs [][]uint32
	var sum uint64
	for i := 0; i < n; i++ {
		p := []uint32{0, 1}
		for r := 2; r < k; r++ {
			if rng.Intn(3) == 0 {
				p = append(p, uint32(r))
			}
		}
		pairs = append(pairs, p)
		sum += count(i)
		if i == stop {
			b.minSup = sum
		}
	}
	if stop < 0 {
		b.minSup = sum + 1
	}
	// The elements of the pattern base, in frequent ranks below k; they
	// are re-ranked above the tags once the number of tags is known.
	type elem struct {
		frequent []uint32
		count    uint64
		tagged   bool
	}
	var elems []elem
	cond := make([]uint64, k)
	for i, p := range pairs {
		elems = append(elems, elem{p, count(i), true})
		for _, r := range p {
			cond[r] += count(i)
		}
	}
	// split adds amount in pieces that fit a path count, the first
	// untagged and the rest tagged, each tagged piece below minSup.
	split := func(frequent []uint32, amount uint64) {
		for first := true; amount > 0; first = false {
			piece := min(amount, math.MaxUint32)
			if !first {
				piece = min(piece, b.minSup-1)
			}
			elems = append(elems, elem{frequent, piece, !first})
			amount -= piece
		}
	}
	for r := range cond {
		if cond[r] < b.minSup {
			split([]uint32{uint32(r)}, b.minSup-cond[r])
			cond[r] = b.minSup
		}
	}
	var sup uint64
	for _, e := range elems {
		sup += e.count
	}
	// Ranks 0 and 1 are in every pair path, and the singles raise no
	// rank past minSup, so no conditional support exceeds theirs.
	if short := cond[0] + cond[1]; short >= sup+b.minSup {
		split(nil, short-sup-b.minSup+1)
	}
	var tags uint32
	for _, e := range elems {
		if e.tagged {
			tags++
		}
	}
	// Tags take ranks [0, tags), frequent rank r becomes tags + r.
	b.pb.top = tags + uint32(k)
	b.cond = make([]uint64, b.pb.top)
	var tag uint32
	for _, e := range elems {
		var p []uint32
		if e.tagged {
			if e.count >= b.minSup {
				t.Fatalf("a tag of count %d is frequent at minSup %d", e.count, b.minSup)
			}
			p = append(p, tag)
			tag++
		}
		for _, r := range e.frequent {
			p = append(p, tags+r)
		}
		b.pb.paths = append(b.pb.paths, p)
		b.pb.counts = append(b.pb.counts, e.count)
		b.sup += e.count
		for _, r := range p {
			b.cond[r] += e.count
		}
		if f := p[len(p)-len(e.frequent):]; len(f) > 0 {
			f = slices.Clone(f)
			slices.Reverse(f)
			b.feed = append(b.feed, f)
			b.feedCnt = append(b.feedCnt, e.count)
		}
	}
	return b
}

// firstFrequentPair counts the pairs of paths in brute force, in order,
// and returns the index of the path at which a pair first reaches
// minSup, or -1.
func firstFrequentPair(paths [][]uint32, counts []uint64, minSup uint64) int {
	cells := map[[2]uint32]uint64{}
	for i, p := range paths {
		for x := range p {
			for _, y := range p[x+1:] {
				pair := [2]uint32{p[x], y}
				cells[pair] += counts[i]
				if cells[pair] >= minSup {
					return i
				}
			}
		}
	}
	return -1
}

// TestPairBatchEdges checks the leaf test's bit-sliced pair batch at its
// edges against brute-force pair counts: chases of 63, 64, 65 and 130
// pair paths (one short of a full batch, a full one, one over, and two
// full batches with a partial third); counts all 1, or mixing 1 with
// values up to 2^32-1 so that a flush sums every bit plane; k = 2 and
// k = maxPairItems; and the first frequent pair at the first, a middle
// and the last path of a batch, at the chase's last path, or nowhere.
// Fed the pattern base's filtered paths directly, the chase must stop
// exactly at that path; through both conditional builders, the verdict
// and the leaf supports must match, and the chase must stop at the
// first path, in the builder's own order, that makes a pair frequent.
func TestPairBatchEdges(t *testing.T) {
	wide := []uint64{1, math.MaxUint32, 1, 1 << 31, 0x5555_5555, 1, 0xAAAA_AAAA, 12345}
	counts := map[string]func(i int) uint64{
		"ones": func(int) uint64 { return 1 },
		"wide": func(i int) uint64 { return wide[i%len(wide)] },
	}
	rng := rand.New(rand.NewSource(1))
	layouts := map[walkLayout]bool{}
	for _, k := range []int{2, maxPairItems} {
		for _, mode := range []string{"ones", "wide"} {
			for _, n := range []int{63, 64, 65, 130} {
				// Middle and last of the first batch, first, middle and
				// last of the second, first of the third, the last path.
				for _, stop := range []int{-1, 31, 63, 64, 95, 127, 128, n - 1} {
					if stop >= n {
						continue
					}
					name := fmt.Sprintf("k%d/%s/n%d/stop%d", k, mode, n, stop)
					t.Run(name, func(t *testing.T) {
						layouts[checkBatchEdge(t, newBatchEdgeBase(t, rng, k, n, counts[mode], stop), k, stop)] = true
					})
				}
			}
		}
	}
	if !layouts[layoutSmall] || !layouts[layoutLocal3] {
		t.Errorf("the flat chases decoded to layouts %v; want both the small and the 3-byte rank-local one", layouts)
	}
}

// checkBatchEdge runs one TestPairBatchEdges case, the flat builder
// over a decoding in every layout that fits the array, and returns the
// layout From picks.
func checkBatchEdge(t *testing.T, b batchEdgeBase, k, stop int) walkLayout {
	var frequent int
	for _, c := range b.cond {
		if c >= b.minSup {
			frequent++
		}
	}
	if frequent != k || firstFrequentPair(b.feed, b.feedCnt, b.minSup) != stop {
		t.Fatalf("fixture: %d frequent ranks, first frequent pair at %d; want %d, %d",
			frequent, firstFrequentPair(b.feed, b.feedCnt, b.minSup), k, stop)
	}
	wantV, wantFed := condLeaf, len(b.feed)
	if stop >= 0 {
		wantV, wantFed = condTree, stop+1
	}
	m := &cfpGrower{minSup: b.minSup, track: &mine.Control{}}
	fed := 0
	v := m.leafVerdict(b.cond, b.sup, false, func(visit func([]uint32, uint64) bool) bool {
		for i, f := range b.feed {
			fed++
			if visit(f, b.feedCnt[i]) {
				return true
			}
		}
		return false
	})
	if v != wantV || fed != wantFed {
		t.Fatalf("fed directly: verdict %d after %d paths, want %d after %d", v, fed, wantV, wantFed)
	}

	a := b.pb.array()
	if a.Support(b.pb.top) != b.sup {
		t.Fatalf("support %d, want %d", a.Support(b.pb.top), b.sup)
	}
	builds := []string{"scan"}
	var decodes []Decode
	for l := layoutSmall; l <= layoutLocal8; l++ {
		if layoutFits(a, l) {
			var d Decode
			if !d.fromLayout(a, l) {
				t.Fatalf("layout %d: From = false", l)
			}
			builds = append(builds, fmt.Sprintf("flat/layout%d", l))
			decodes = append(decodes, d)
		}
	}
	for bi, build := range builds {
		track := &mine.Control{}
		m := &cfpGrower{minSup: b.minSup, track: track, treeArena: arena.New()}
		// Record the paths the builder's chase hands to the visitor.
		var paths [][]uint32
		var pathCnt []uint64
		m.pairVisit = func(p []uint32, c uint64) bool {
			paths = append(paths, slices.Clone(p))
			pathCnt = append(pathCnt, c)
			return m.addPath(p, c)
		}
		var tree *Tree
		var leaf bool
		if bi > 0 {
			tree, leaf = m.conditionalFlat(a, &decodes[bi-1], b.pb.top, b.sup, false)
		} else {
			tree, leaf = m.conditionalScan(a, b.pb.top, b.sup, false)
		}
		if leaf != (stop < 0) || (tree != nil) != (stop >= 0) {
			t.Fatalf("%s: tree %v leaf %v, want leaf %v", build, tree != nil, leaf, stop < 0)
		}
		if leaf && !slices.Equal(m.condBuf, b.cond) {
			t.Fatalf("%s: leaf supports %v, want %v", build, m.condBuf, b.cond)
		}
		first := firstFrequentPair(paths, pathCnt, b.minSup)
		if leaf && (first >= 0 || len(paths) != len(b.feed)) {
			t.Fatalf("%s: leaf chase fed %d of %d paths, first frequent pair at %d", build, len(paths), len(b.feed), first)
		}
		if !leaf && first != len(paths)-1 {
			t.Fatalf("%s: chase stopped after %d paths, first frequent pair at path %d", build, len(paths), first)
		}
		if track.Bytes() != 0 {
			t.Fatalf("%s: %d bytes left charged", build, track.Bytes())
		}
	}
	return layoutOf(a)
}
