// Package algo registers every frequent-itemset miner in the
// repository under a stable name, for use by the CLI tools, the
// experiment harness, and the cross-validation tests.
package algo

import (
	"fmt"
	"runtime"
	"sort"

	"cfpgrowth/internal/algo/afopt"
	"cfpgrowth/internal/algo/apriori"
	"cfpgrowth/internal/algo/ctpro"
	"cfpgrowth/internal/algo/eclat"
	"cfpgrowth/internal/algo/fparray"
	"cfpgrowth/internal/algo/nonordfp"
	"cfpgrowth/internal/algo/tiny"
	"cfpgrowth/internal/core"
	"cfpgrowth/internal/fptree"
	"cfpgrowth/internal/mine"
	"cfpgrowth/internal/obs"
	"cfpgrowth/internal/pfp"
)

// factories maps algorithm names to constructors taking a memory
// tracker, a cancellation control, and an observability recorder.
// Miners without native control support ignore ctl; their runs are
// still stopped at the next emission by the mine.ControlSink the
// callers wrap around the sink, and charge ctl's byte ledger through
// the tracker NewObserved hands them. Miners without native
// instrumentation ignore rec.
var factories = map[string]func(mine.MemTracker, *mine.Control, *obs.Recorder) mine.Miner{
	"cfpgrowth": func(t mine.MemTracker, c *mine.Control, r *obs.Recorder) mine.Miner {
		return core.Growth{Track: t, Ctl: c, Rec: r}
	},
	"cfpgrowth-par": func(t mine.MemTracker, c *mine.Control, r *obs.Recorder) mine.Miner {
		return core.Growth{Workers: runtime.GOMAXPROCS(0), Track: t, Ctl: c, Rec: r}
	},
	"pfp": func(t mine.MemTracker, c *mine.Control, r *obs.Recorder) mine.Miner {
		return pfp.Miner{Track: t, Ctl: c, Rec: r}
	},
	"fpgrowth": func(t mine.MemTracker, c *mine.Control, r *obs.Recorder) mine.Miner {
		return fptree.Growth{Track: t, Ctl: c, Rec: r}
	},
	"apriori": func(t mine.MemTracker, c *mine.Control, _ *obs.Recorder) mine.Miner {
		return apriori.Miner{Track: t, Ctl: c}
	},
	"eclat": func(t mine.MemTracker, c *mine.Control, _ *obs.Recorder) mine.Miner {
		return eclat.Miner{Track: t, Ctl: c}
	},
	"nonordfp": func(t mine.MemTracker, _ *mine.Control, _ *obs.Recorder) mine.Miner { return nonordfp.Miner{Track: t} },
	"fparray":  func(t mine.MemTracker, _ *mine.Control, _ *obs.Recorder) mine.Miner { return fparray.Miner{Track: t} },
	"tiny":     func(t mine.MemTracker, _ *mine.Control, _ *obs.Recorder) mine.Miner { return tiny.Miner{Track: t} },
	"afopt":    func(t mine.MemTracker, _ *mine.Control, _ *obs.Recorder) mine.Miner { return afopt.Miner{Track: t} },
	"ctpro":    func(t mine.MemTracker, _ *mine.Control, _ *obs.Recorder) mine.Miner { return ctpro.Miner{Track: t} },
}

// New returns the miner registered under name, reporting memory to
// track, or to ctl's ledger when track is nil, and honoring ctl (both
// may be nil).
func New(name string, track mine.MemTracker, ctl *mine.Control) (mine.Miner, error) {
	return NewObserved(name, track, ctl, nil)
}

// NewObserved is New with an observability recorder attached; the
// natively instrumented miners (cfpgrowth, cfpgrowth-par, pfp,
// fpgrowth) record phase spans and structure counters into it, the
// rest ignore it. A nil rec disables instrumentation.
func NewObserved(name string, track mine.MemTracker, ctl *mine.Control, rec *obs.Recorder) (mine.Miner, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (have %v)", name, Names())
	}
	return f(mine.Ledger(track, ctl), ctl, rec), nil
}

// Names lists the registered algorithms, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
