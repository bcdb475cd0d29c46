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

// factories maps algorithm names to constructors taking the run's
// Control and an observability recorder. Every miner charges its
// modeled bytes to the Control's ledger and polls it for a stop; the
// mine.ControlSink the callers wrap around the sink also stops a run
// at its next emission. Miners without native instrumentation ignore
// rec.
var factories = map[string]func(*mine.Control, *obs.Recorder) mine.Miner{
	"cfpgrowth": func(c *mine.Control, r *obs.Recorder) mine.Miner { return core.Growth{Ctl: c, Rec: r} },
	"cfpgrowth-par": func(c *mine.Control, r *obs.Recorder) mine.Miner {
		return core.Growth{Workers: runtime.GOMAXPROCS(0), Ctl: c, Rec: r}
	},
	"pfp":      func(c *mine.Control, r *obs.Recorder) mine.Miner { return pfp.Miner{Ctl: c, Rec: r} },
	"fpgrowth": func(c *mine.Control, r *obs.Recorder) mine.Miner { return fptree.Growth{Ctl: c, Rec: r} },
	"apriori":  func(c *mine.Control, _ *obs.Recorder) mine.Miner { return apriori.Miner{Ctl: c} },
	"eclat":    func(c *mine.Control, _ *obs.Recorder) mine.Miner { return eclat.Miner{Ctl: c} },
	"nonordfp": func(c *mine.Control, _ *obs.Recorder) mine.Miner { return nonordfp.Miner{Ctl: c} },
	"fparray":  func(c *mine.Control, _ *obs.Recorder) mine.Miner { return fparray.Miner{Ctl: c} },
	"tiny":     func(c *mine.Control, _ *obs.Recorder) mine.Miner { return tiny.Miner{Ctl: c} },
	"afopt":    func(c *mine.Control, _ *obs.Recorder) mine.Miner { return afopt.Miner{Ctl: c} },
	"ctpro":    func(c *mine.Control, _ *obs.Recorder) mine.Miner { return ctpro.Miner{Ctl: c} },
}

// New returns the miner registered under name, charging and honoring
// ctl (nil: never stopped, nothing counted).
func New(name string, ctl *mine.Control) (mine.Miner, error) {
	return NewObserved(name, ctl, nil)
}

// NewObserved is New with an observability recorder attached; the
// natively instrumented miners (cfpgrowth, cfpgrowth-par, pfp,
// fpgrowth) record phase spans and structure counters into it, the
// rest ignore it. A nil rec disables instrumentation.
func NewObserved(name string, ctl *mine.Control, rec *obs.Recorder) (mine.Miner, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (have %v)", name, Names())
	}
	return f(ctl, rec), nil
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
