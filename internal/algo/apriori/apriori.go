// Package apriori implements the classic bottom-up Apriori algorithm
// (Agrawal–Srikant), the canonical representative of the paper's first
// algorithm category (§1): repeated database scans build candidate
// itemsets of increasing cardinality, exploiting the downward-closure
// property. It exists as a correctness oracle and as the level-wise
// baseline in the comparison harness; its repeated scans and candidate
// storage are exactly the costs prefix-tree algorithms avoid.
package apriori

import (
	"sort"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// Miner is the Apriori miner. Candidates are kept in a prefix trie;
// counting walks the trie against each (recoded, sorted) transaction.
type Miner struct {
	// Track observes modeled memory consumption (candidate trie).
	Track mine.MemTracker
	// Ctl, when non-nil, is polled during each counting scan and before
	// every emission, so a stopped run aborts promptly mid-level and
	// emits nothing further.
	Ctl *mine.Control
}

// Name implements mine.Miner.
func (Miner) Name() string { return "apriori" }

// trieNode is one level of the candidate prefix trie.
type trieNode struct {
	children map[uint32]*trieNode
	count    uint64 // valid at leaf level only
}

// trieNodeBytes is the modeled size of one trie node (item key, child
// pointer, count).
const trieNodeBytes = 24

// Mine implements mine.Miner.
func (m Miner) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	if err := m.Ctl.Err(); err != nil {
		return err
	}
	counts, err := dataset.CountItems(src)
	if err != nil {
		return err
	}
	if minSupport == 0 {
		minSupport = 1
	}
	rec := dataset.NewRecoder(counts, minSupport)
	n := rec.NumFrequent()
	if n == 0 {
		return nil
	}
	track := m.Track
	if track == nil {
		track = mine.NullTracker{}
	}
	// L1 and its emission.
	lk := make([][]uint32, 0, n)
	for rk := 0; rk < n; rk++ {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		if err := sink.Emit([]uint32{rec.Decode(uint32(rk))}, rec.Support(uint32(rk))); err != nil {
			return err
		}
		lk = append(lk, []uint32{uint32(rk)})
	}
	sortSets(lk)
	for k := 2; len(lk) >= 2; k++ {
		cands := generate(lk)
		if len(cands) == 0 {
			return nil
		}
		root, nodes := buildTrie(cands)
		track.Alloc(int64(nodes) * trieNodeBytes)
		var buf []uint32
		err := src.Scan(func(tx []uint32) error {
			if err := m.Ctl.Err(); err != nil {
				return err
			}
			buf = rec.Encode(tx, buf[:0])
			if len(buf) >= k {
				countTrie(root, buf, k)
			}
			return nil
		})
		if err != nil {
			track.Free(int64(nodes) * trieNodeBytes)
			return err
		}
		next := lk[:0]
		for _, c := range cands {
			sup := lookup(root, c)
			if sup >= minSupport {
				err := m.Ctl.Err()
				if err == nil {
					err = sink.Emit(rec.DecodeSet(c), sup)
				}
				if err != nil {
					track.Free(int64(nodes) * trieNodeBytes)
					return err
				}
				next = append(next, c)
			}
		}
		track.Free(int64(nodes) * trieNodeBytes)
		lk = next
		sortSets(lk)
	}
	return nil
}

// sortSets orders itemsets lexicographically so candidate generation
// can join neighbors sharing a (k-1)-prefix.
func sortSets(sets [][]uint32) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// generate produces the candidate (k+1)-itemsets from the frequent
// k-itemsets: join pairs sharing their first k-1 items, then prune
// candidates with an infrequent k-subset.
func generate(lk [][]uint32) [][]uint32 {
	freq := make(map[string]struct{}, len(lk))
	for _, s := range lk {
		freq[key(s)] = struct{}{}
	}
	var out [][]uint32
	for i := 0; i < len(lk); i++ {
		for j := i + 1; j < len(lk); j++ {
			a, b := lk[i], lk[j]
			if !samePrefix(a, b) {
				break // sorted: no later j can share the prefix
			}
			cand := make([]uint32, len(a)+1)
			copy(cand, a)
			cand[len(a)] = b[len(b)-1]
			if pruned(cand, freq) {
				continue
			}
			out = append(out, cand)
		}
	}
	return out
}

func samePrefix(a, b []uint32) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// pruned reports whether some k-subset of cand is not frequent.
func pruned(cand []uint32, freq map[string]struct{}) bool {
	sub := make([]uint32, 0, len(cand)-1)
	for drop := 0; drop < len(cand)-2; drop++ {
		// Subsets missing one of the first len-2 items; the two
		// subsets missing the last items are the join parents.
		sub = sub[:0]
		sub = append(sub, cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if _, ok := freq[key(sub)]; !ok {
			return true
		}
	}
	return false
}

func key(s []uint32) string {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// buildTrie indexes the candidates and returns the root and node count.
func buildTrie(cands [][]uint32) (*trieNode, int) {
	root := &trieNode{children: map[uint32]*trieNode{}}
	nodes := 1
	for _, c := range cands {
		cur := root
		for _, it := range c {
			next := cur.children[it]
			if next == nil {
				next = &trieNode{}
				if cur.children == nil {
					cur.children = map[uint32]*trieNode{}
				}
				cur.children[it] = next
				nodes++
			}
			if next.children == nil && len(c) > 1 {
				next.children = map[uint32]*trieNode{}
			}
			cur = next
		}
	}
	return root, nodes
}

// countTrie increments the count of every depth-k candidate contained
// in tx (strictly increasing ranks).
func countTrie(node *trieNode, tx []uint32, k int) {
	if k == 0 {
		node.count++
		return
	}
	if len(tx) < k {
		return
	}
	for i := 0; i+k <= len(tx); i++ {
		if child, ok := node.children[tx[i]]; ok {
			countTrie(child, tx[i+1:], k-1)
		}
	}
}

// lookup returns the counted support of candidate c.
func lookup(root *trieNode, c []uint32) uint64 {
	cur := root
	for _, it := range c {
		cur = cur.children[it]
		if cur == nil {
			return 0
		}
	}
	return cur.count
}
