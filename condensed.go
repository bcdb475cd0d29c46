package cfpgrowth

import (
	"errors"

	"cfpgrowth/internal/algo/sample"
	"cfpgrowth/internal/mine"
)

// MineClosed returns the closed frequent itemsets: those with no proper
// superset of equal support. Closed itemsets are a lossless condensed
// representation — every frequent itemset's support is recoverable as
// the maximum support of its closed supersets.
func MineClosed(src Source, opts Options) ([]Itemset, error) {
	sets, err := MineAll(src, opts)
	if err != nil {
		return nil, err
	}
	out := mine.FilterClosed(sets)
	mine.Canonicalize(out)
	return out, nil
}

// MineMaximal returns the maximal frequent itemsets: those with no
// frequent proper superset. Maximal itemsets are the most compact
// representation of the frequent-itemset border (supports of subsets
// are not recoverable).
func MineMaximal(src Source, opts Options) ([]Itemset, error) {
	sets, err := MineAll(src, opts)
	if err != nil {
		return nil, err
	}
	out := mine.FilterMaximal(sets)
	mine.Canonicalize(out)
	return out, nil
}

// MineSampled mines approximately via Toivonen-style sampling: a
// random fraction of the database is mined at a lowered threshold and
// every candidate is then verified with one exact counting scan. All
// returned supports are exact and at least the threshold (perfect
// precision); itemsets that were unlucky in the sample may be missing
// (recall < 1). Useful when the database is huge and a fast,
// almost-complete answer beats an exact one. Options.Context,
// MaxBytes, MaxItemsets, MaxLen and Memory bound the run as they do
// Mine; setting Algorithm, Parallel or Observe is an error, since the
// sampling miner has no alternatives, workers or instrumentation.
func MineSampled(src Source, opts Options, fraction float64, seed int64) ([]Itemset, error) {
	sets, _, err := mineSampled(src, opts, fraction, seed, false)
	return sets, err
}

// MineSampledCertified is MineSampled with Toivonen's negative-border
// completeness check: the sample's candidate border is counted exactly
// alongside the candidates, and complete is true exactly when no border
// itemset is frequent — in which case the returned sets are provably
// the full result. When complete is false, re-run with a larger
// fraction (or just mine exactly).
func MineSampledCertified(src Source, opts Options, fraction float64, seed int64) (sets []Itemset, complete bool, err error) {
	return mineSampled(src, opts, fraction, seed, true)
}

func mineSampled(src Source, opts Options, fraction float64, seed int64, certify bool) ([]Itemset, bool, error) {
	if opts.Algorithm != "" || opts.Parallel > 0 || opts.Observe != nil {
		return nil, false, errors.New("cfpgrowth: sampled mining takes no Algorithm, Parallel or Observe")
	}
	var sink mine.CollectSink
	m := &sampledMiner{certify: certify}
	err := opts.runMiner(src, &sink, func(track mine.MemTracker, ctl *mine.Control) (mine.Miner, error) {
		m.Miner = sample.Miner{Fraction: fraction, Seed: seed, Track: track, Ctl: ctl}
		return m, nil
	})
	if err != nil {
		return nil, false, err
	}
	mine.Canonicalize(sink.Sets)
	return sink.Sets, m.complete, nil
}

// sampledMiner runs the sampling miner, certified or not, and keeps the
// completeness verdict of a certified run.
type sampledMiner struct {
	sample.Miner
	certify, complete bool
}

func (m *sampledMiner) Mine(src Source, minSupport uint64, sink mine.Sink) (err error) {
	if !m.certify {
		return m.Miner.Mine(src, minSupport, sink)
	}
	m.complete, err = m.MineCertified(src, minSupport, sink)
	return err
}

// MineTopK returns the k frequent itemsets of highest support with at
// least minLen items (minLen ≥ 2 is typical: singletons otherwise
// dominate by support antitonicity), sorted by descending support.
// Options bound and observe the run as they do Mine; MaxItemsets counts
// every itemset offered to the top-k selection.
func MineTopK(src Source, opts Options, k, minLen int) ([]Itemset, error) {
	sink := &mine.TopKSink{K: k, MinLen: minLen}
	if err := opts.run(src, sink); err != nil {
		return nil, err
	}
	return sink.Result(), nil
}
