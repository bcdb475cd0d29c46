// Package eclat implements a vertical frequent-itemset miner in the
// Eclat/LCM family: items are represented by transaction-id lists and
// the search proceeds depth-first by tidlist intersection. It stands in
// for LCM v2 in the paper's Figure 8 comparison; its defining cost
// characteristic — memory proportional to the number of transactions —
// is exactly the property the paper observes breaking LCM on Quest2
// (§4.5).
package eclat

import (
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

// Miner is the Eclat miner.
type Miner struct {
	// Ctl, when non-nil, is polled during the vertical build and the
	// depth-first search so a stopped run aborts promptly. It is also
	// the run's byte ledger: the resident database (LCM-family
	// implementations keep the transactions in memory, which is why
	// the paper finds LCM's footprint proportional to the number of
	// transactions, §4.5) plus 4 bytes per tidlist entry.
	Ctl *mine.Control
}

// DatasetBytesPerOccurrence models the in-memory transaction storage
// (§4.1: below 6 bytes per item occurrence).
const DatasetBytesPerOccurrence = 6

// Name implements mine.Miner.
func (Miner) Name() string { return "eclat" }

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
	// Vertical representation: one tidlist per frequent item.
	tids := make([][]uint32, n)
	for rk := 0; rk < n; rk++ {
		tids[rk] = make([]uint32, 0, rec.Support(uint32(rk)))
	}
	var tid uint32
	var occurrences int64
	var buf []uint32
	err = src.Scan(func(tx []uint32) error {
		if err := m.Ctl.Err(); err != nil {
			return err
		}
		occurrences += int64(len(tx))
		buf = rec.Encode(tx, buf[:0])
		for _, rk := range buf {
			tids[rk] = append(tids[rk], tid)
		}
		tid++
		return nil
	})
	if err != nil {
		return err
	}
	resident := occurrences * DatasetBytesPerOccurrence
	for _, l := range tids {
		resident += int64(len(l)) * 4
	}
	m.Ctl.Alloc(resident)
	defer m.Ctl.Free(resident)

	e := &eclat{minSup: minSupport, sink: sink, rec: rec, ctl: m.Ctl}
	// Depth-first over extensions in ascending rank order.
	items := make([]uint32, n)
	for i := range items {
		items[i] = uint32(i)
	}
	return e.grow(nil, items, tids)
}

type eclat struct {
	minSup uint64
	sink   mine.Sink
	rec    *dataset.Recoder
	ctl    *mine.Control // nil = never canceled
	setBuf []uint32
}

// grow extends prefix by each item of items (whose tidlists are given),
// emitting and recursing. items[i]'s tidlist length is its support in
// the prefix-conditional database.
func (e *eclat) grow(prefix []uint32, items []uint32, tids [][]uint32) error {
	for i, it := range items {
		if err := e.ctl.Err(); err != nil {
			return err
		}
		sup := uint64(len(tids[i]))
		if sup < e.minSup {
			continue
		}
		prefix = append(prefix, it)
		e.setBuf = append(e.setBuf[:0], prefix...)
		if err := e.sink.Emit(e.rec.DecodeSet(e.setBuf), sup); err != nil {
			return err
		}
		// Conditional database: intersect with every later item.
		var condItems []uint32
		var condTids [][]uint32
		var condBytes int64
		for j := i + 1; j < len(items); j++ {
			inter := intersect(tids[i], tids[j])
			if uint64(len(inter)) >= e.minSup {
				condItems = append(condItems, items[j])
				condTids = append(condTids, inter)
				condBytes += int64(len(inter)) * 4
			}
		}
		if len(condItems) > 0 {
			e.ctl.Alloc(condBytes)
			err := e.grow(prefix, condItems, condTids)
			e.ctl.Free(condBytes)
			if err != nil {
				return err
			}
		}
		prefix = prefix[:len(prefix)-1]
	}
	return nil
}

// intersect returns the sorted intersection of two sorted tidlists.
func intersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
