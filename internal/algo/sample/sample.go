// Package sample implements sampling-based approximate frequent-itemset
// mining in the style of Toivonen (VLDB'96), the paper's related-work
// class (3) (§5): mine a random sample of the database at a lowered
// support threshold, then verify every candidate's support exactly with
// one full scan. The output contains only itemsets whose *exact*
// support reaches the threshold (perfect precision); itemsets unlucky
// enough to be infrequent in the sample can be missed (recall below 1).
//
// MineCertified additionally counts the candidates' negative border —
// Toivonen's completeness check: if no border itemset is frequent, the
// result is provably complete.
package sample

import (
	"math/rand"
	"sort"

	"cfpgrowth/internal/core"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// Miner is the sampling miner.
type Miner struct {
	// Fraction is the sampling rate in (0, 1]; default 0.1.
	Fraction float64
	// Slack lowers the sample-support threshold by this relative
	// margin to reduce false negatives (default 0.25, i.e. the sample
	// is mined at 75% of the scaled support).
	Slack float64
	// Seed makes the sample deterministic.
	Seed int64
	// Track observes modeled memory of the sample-mining phase.
	Track mine.MemTracker
	// Ctl, when non-nil, is polled by both scans, the sample mine and
	// every emission, so a stopped run (cancellation, deadline, budget,
	// failing sink) emits nothing further and aborts with its cause.
	Ctl *mine.Control
}

// Name implements mine.Miner.
func (Miner) Name() string { return "sample" }

// Mine implements mine.Miner. Unlike the exact miners, the result may
// miss itemsets (documented recall < 1); every emitted support is
// exact.
func (m Miner) Mine(src dataset.Source, minSupport uint64, sink mine.Sink) error {
	_, err := m.mine(src, minSupport, sink, false)
	return err
}

// MineCertified mines like Mine but additionally counts the negative
// border of the candidate collection (Toivonen's completeness check):
// the minimal itemsets *not* among the sample's candidates. If no
// border itemset turns out frequent, the emitted result is provably
// complete and complete is true; otherwise frequent itemsets beyond the
// border may have been missed and the caller should re-run with a
// larger sample or more slack.
func (m Miner) MineCertified(src dataset.Source, minSupport uint64, sink mine.Sink) (complete bool, err error) {
	return m.mine(src, minSupport, sink, true)
}

func (m Miner) mine(src dataset.Source, minSupport uint64, sink mine.Sink, certify bool) (bool, error) {
	frac := m.Fraction
	if frac <= 0 || frac > 1 {
		frac = 0.1
	}
	slack := m.Slack
	if slack <= 0 || slack >= 1 {
		slack = 0.25
	}
	if minSupport == 0 {
		minSupport = 1
	}
	// Pass 1: exact singleton supports (needed for the level-1 border
	// and to bound the universe) and the Bernoulli sample, in one scan.
	rng := rand.New(rand.NewSource(m.Seed))
	var counter dataset.Counter
	var sampleDB dataset.Slice
	err := src.Scan(func(tx []dataset.Item) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		counter.Add(tx)
		if rng.Float64() < frac {
			cp := make([]dataset.Item, len(tx))
			copy(cp, tx)
			sampleDB = append(sampleDB, cp)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	counts := counter.Counts()
	if counts.NumTx == 0 {
		return true, nil
	}
	// Mine the sample at the scaled, slack-lowered threshold.
	sampleSup := uint64(float64(minSupport) * frac * (1 - slack))
	if sampleSup < 1 {
		sampleSup = 1
	}
	var cands mine.CollectSink
	if len(sampleDB) > 0 {
		if err := (core.Growth{Track: m.Track, Ctl: m.Ctl}).Mine(sampleDB, sampleSup, &cands); err != nil {
			return false, err
		}
	}
	// Candidate collection keyed per level.
	levels := map[int]map[string][]uint32{}
	maxK := 0
	for _, s := range cands.Sets {
		k := len(s.Items)
		if levels[k] == nil {
			levels[k] = map[string][]uint32{}
		}
		levels[k][key(s.Items)] = s.Items
		if k > maxK {
			maxK = k
		}
	}
	// The negative border, when certifying. Level 1: universe items
	// not among the singleton candidates (their exact supports are
	// already known from pass 1). Level k ≥ 2: apriori-style joins of
	// the level-(k-1) candidates that are not candidates themselves.
	var border [][]uint32
	if certify {
		border = negativeBorder(levels, maxK)
	}
	// Pass 2: exact counting of candidates and border sets (k ≥ 2)
	// with per-cardinality prefix tries.
	tries := map[int]*trieNode{}
	insertAll := func(sets map[string][]uint32, k int) {
		if len(sets) == 0 {
			return
		}
		if tries[k] == nil {
			tries[k] = &trieNode{}
		}
		for _, items := range sets {
			tries[k].insert(items)
		}
	}
	for k := 2; k <= maxK; k++ {
		insertAll(levels[k], k)
	}
	maxCount := maxK
	for _, b := range border {
		if len(b) < 2 {
			continue
		}
		if tries[len(b)] == nil {
			tries[len(b)] = &trieNode{}
		}
		tries[len(b)].insert(b)
		if len(b) > maxCount {
			maxCount = len(b)
		}
	}
	if len(tries) > 0 {
		var buf []dataset.Item
		err = src.Scan(func(tx []dataset.Item) error {
			if err := m.Ctl.Err(); err != nil {
				return err
			}
			buf = append(buf[:0], tx...)
			sortDedupe(&buf)
			for k := 2; k <= maxCount && k <= len(buf); k++ {
				if tries[k] != nil {
					tries[k].count(buf, k)
				}
			}
			return nil
		})
		if err != nil {
			return false, err
		}
	}
	// Emit candidates with exact support ≥ threshold. Singletons use
	// the exact pass-1 counts.
	for _, s := range cands.Sets {
		var sup uint64
		if len(s.Items) == 1 {
			sup = counts.Support[s.Items[0]]
		} else {
			sup = tries[len(s.Items)].lookup(s.Items)
		}
		if sup >= minSupport {
			if err := m.Ctl.Err(); err != nil {
				return false, err
			}
			if err := sink.Emit(s.Items, sup); err != nil {
				return false, err
			}
		}
	}
	if !certify {
		return false, nil
	}
	// Completeness, level 1: any universe item that is frequent but
	// not a singleton candidate was missed by the sample entirely.
	// Pass 1 gave exact supports for every item, so this check is free.
	singles := levels[1]
	for it, sup := range counts.Support {
		if sup < minSupport {
			continue
		}
		if _, ok := singles[key([]uint32{it})]; !ok {
			return false, nil
		}
	}
	// Completeness, levels ≥ 2: no border set may be frequent.
	for _, b := range border {
		var sup uint64
		if len(b) == 1 {
			sup = counts.Support[b[0]]
		} else {
			sup = tries[len(b)].lookup(b)
		}
		if sup >= minSupport {
			return false, nil
		}
	}
	return true, nil
}

// negativeBorder computes the minimal itemsets of size ≥ 2 that are not
// in the candidate collection: apriori-style joins of level-(k-1)
// candidates whose every (k-1)-subset is also a candidate but which are
// not level-k candidates themselves. (The level-1 border — universe
// items missing from the singleton candidates — is checked by the
// caller directly against the exact pass-1 counts.)
func negativeBorder(levels map[int]map[string][]uint32, maxK int) [][]uint32 {
	var border [][]uint32
	for k := 2; k <= maxK+1; k++ {
		prev := levels[k-1]
		if len(prev) == 0 {
			continue
		}
		cur := levels[k]
		sets := make([][]uint32, 0, len(prev))
		for _, s := range prev {
			sets = append(sets, s)
		}
		sort.Slice(sets, func(i, j int) bool { return lessSet(sets[i], sets[j]) })
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				if !samePrefix(sets[i], sets[j]) {
					break
				}
				cand := make([]uint32, k)
				copy(cand, sets[i])
				cand[k-1] = sets[j][k-2]
				if cur != nil {
					if _, ok := cur[key(cand)]; ok {
						continue
					}
				}
				// All (k-1)-subsets must be candidates; otherwise the
				// set is not minimal (a smaller non-candidate subset
				// is already in the border).
				if !allSubsetsIn(cand, prev) {
					continue
				}
				border = append(border, cand)
			}
		}
	}
	return border
}

func lessSet(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func samePrefix(a, b []uint32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsIn(cand []uint32, prev map[string][]uint32) bool {
	sub := make([]uint32, 0, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		sub = append(sub, cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if _, ok := prev[key(sub)]; !ok {
			return false
		}
	}
	return true
}

func key(items []uint32) string {
	b := make([]byte, 4*len(items))
	for i, v := range items {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// trieNode is a candidate prefix trie over original item identifiers
// (candidates arrive sorted ascending from the sample miner).
type trieNode struct {
	children map[uint32]*trieNode
	n        uint64
}

func (t *trieNode) insert(items []uint32) {
	cur := t
	for _, it := range items {
		if cur.children == nil {
			cur.children = map[uint32]*trieNode{}
		}
		next := cur.children[it]
		if next == nil {
			next = &trieNode{}
			cur.children[it] = next
		}
		cur = next
	}
}

func (t *trieNode) count(tx []uint32, k int) {
	if k == 0 {
		t.n++
		return
	}
	if len(tx) < k || t.children == nil {
		return
	}
	for i := 0; i+k <= len(tx); i++ {
		if child, ok := t.children[tx[i]]; ok {
			child.count(tx[i+1:], k-1)
		}
	}
}

func (t *trieNode) lookup(items []uint32) uint64 {
	cur := t
	for _, it := range items {
		if cur == nil || cur.children == nil {
			return 0
		}
		cur = cur.children[it]
	}
	if cur == nil {
		return 0
	}
	return cur.n
}

func sortDedupe(s *[]uint32) {
	v := *s
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	w := 0
	for i, x := range v {
		if i == 0 || x != v[w-1] {
			v[w] = x
			w++
		}
	}
	*s = v[:w]
}
