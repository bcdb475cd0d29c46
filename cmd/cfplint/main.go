// Command cfplint is the repo-specific static-analysis driver: a
// multichecker over the analyzers in internal/analysis/... that guard
// the no-emission-after-stop concurrency invariant (sinkguard),
// goroutine join discipline (goroutinesafe), span hygiene (obsguard),
// atomic-field discipline (atomicfield), lock-order discipline
// (lockorder) and hot-path allocation discipline (allochot). The
// reporting-free summary phase runs first and publishes the
// per-function EmitsSink facts that sinkguard and lockorder consume.
//
// Every reporting analyzer here survived a mutation audit (DESIGN.md
// §5b): a bug of its class planted in product code passed every test,
// -race included. An analyzer whose planted bug a test catches
// duplicates that test and does not belong in the suite.
//
// Usage:
//
//	go run ./cmd/cfplint [-tests] [-list] [-json file] [-budget file] [packages...]
//
// With no arguments it checks ./... . Findings print as
// file:line:col: message [analyzer]; -json additionally writes the CI
// artifact to the given file: an object {"findings": [...],
// "timings_ms": {...}} with per-analyzer wall time summed across
// packages. -budget reads a committed baseline file (analyzer →
// milliseconds) and fails the run when any analyzer exceeds twice its
// baseline, ran without a baseline entry, or has a baseline entry but
// never ran — so a solver regression (say, a dataflow fixpoint that
// stops converging) fails CI instead of silently tripling lint wall
// time, and the baseline file cannot drift out of sync with the suite.
// The exit status is 1 when any finding survives or the
// budget check fails, 2 when loading fails, the patterns match no
// packages, or the artifact cannot be written — an empty match or a
// lost artifact is a misconfiguration, not a clean run. Individual
// sites are suppressed with an audited directive
// on the flagged line or the line above:
//
//	//cfplint:ignore <analyzer> <reason>
//
// A directive that names no analyzer of the suite is itself a finding.
//
// Each analyzer runs over a scope matching its invariant: sinkguard
// only applies to the mining packages (internal/core, internal/pfp,
// internal/fptree, internal/algo/...), obsguard to the packages
// instrumented with obs spans, lockorder to the synchronized layers
// (internal/obs, internal/core — mine.SyncSink deliberately holds its
// mutex across Inner.Emit and is out of scope), the rest module-wide.
//
// Packages are analyzed in dependency order sharing one fact store, so
// facts exported while analyzing a dependency (say, a stop-check
// helper in internal/fptree) are visible when its importers are
// analyzed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cfpgrowth/internal/analysis"
	"cfpgrowth/internal/analysis/allochot"
	"cfpgrowth/internal/analysis/atomicfield"
	"cfpgrowth/internal/analysis/goroutinesafe"
	"cfpgrowth/internal/analysis/lockorder"
	"cfpgrowth/internal/analysis/obsguard"
	"cfpgrowth/internal/analysis/sinkguard"
	"cfpgrowth/internal/analysis/summary"
)

// scoped pairs an analyzer with the package scope its invariant lives
// in.
type scoped struct {
	analyzer *analysis.Analyzer
	applies  func(importPath string) bool
}

func everywhere(string) bool { return true }

func anyPrefix(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

var suite = []scoped{
	// The summary phase runs first and everywhere: it reports nothing
	// but publishes the Effects facts every interprocedural analyzer
	// consumes, and packages are visited in dependency order, so a
	// callee's summary always exists before its callers are analyzed.
	{summary.Analyzer, everywhere},
	{goroutinesafe.Analyzer, anyPrefix(
		"cfpgrowth/internal/mine",
		"cfpgrowth/internal/core",
		"cfpgrowth/internal/pfp",
		"cfpgrowth/internal/obs",
		"cfpgrowth/internal/vm",
		"cfpgrowth/internal/synth",
		"cfpgrowth/internal/stats",
		"cfpgrowth/cmd",
	)},
	{sinkguard.Analyzer, anyPrefix(
		"cfpgrowth/internal/core",
		"cfpgrowth/internal/pfp",
		"cfpgrowth/internal/fptree",
		"cfpgrowth/internal/algo",
	)},
	{obsguard.Analyzer, anyPrefix(
		"cfpgrowth/internal/core",
		"cfpgrowth/internal/pfp",
		"cfpgrowth/internal/fptree",
		"cfpgrowth/internal/experiments",
		"cfpgrowth/internal/vm",
		"cfpgrowth/internal/synth",
		"cfpgrowth/internal/stats",
		"cfpgrowth/cmd",
	)},
	{lockorder.Analyzer, anyPrefix(
		"cfpgrowth/internal/obs",
		"cfpgrowth/internal/core",
	)},
	{atomicfield.Analyzer, everywhere},
	{allochot.Analyzer, everywhere},
}

// jsonFinding is the -json serialization of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json artifact: the findings plus the
// per-analyzer wall-time breakdown (milliseconds, summed over all
// analyzed packages) so CI can watch for analyzers whose cost drifts.
type jsonReport struct {
	Findings  []jsonFinding      `json:"findings"`
	TimingsMS map[string]float64 `json:"timings_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit code:
// 0 clean, 1 findings, 2 usage/load errors (including patterns that
// match no packages).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.String("json", "", "also write findings and per-analyzer timings as JSON to this `file`")
	budgetFile := fs.String("budget", "", "compare per-analyzer timings against this baseline `file` and fail on >2x drift")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, s := range suite {
			fmt.Fprintf(stdout, "%s\n%s\n\n", s.analyzer.Name, s.analyzer.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := &analysis.Loader{Tests: *tests}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "cfplint: patterns %v matched no packages\n", patterns)
		return 2
	}

	// One fact store for the whole run, fed in dependency order, so an
	// analyzer looking at a package sees the facts of everything that
	// package imports.
	var all []analysis.Finding
	timings := map[string]time.Duration{}
	store := analysis.NewFactStore()
	everyAnalyzer := make([]*analysis.Analyzer, len(suite))
	for i, s := range suite {
		everyAnalyzer[i] = s.analyzer
	}
	for _, pkg := range topoOrder(pkgs) {
		unknown, err := analysis.UnknownDirectives(pkg, everyAnalyzer)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		all = append(all, unknown...)
		var active []*analysis.Analyzer
		for _, s := range suite {
			if s.applies(pkg.ImportPath) {
				active = append(active, s.analyzer)
			}
		}
		if len(active) == 0 {
			continue
		}
		findings, pkgTimings, err := analysis.RunWithFactsTimed(pkg, active, store)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		all = append(all, findings...)
		for name, d := range pkgTimings {
			timings[name] += d
		}
	}

	wd, _ := os.Getwd()
	var jfs []jsonFinding
	for _, f := range all {
		pos := f.Pos
		if wd != "" {
			if rel, ok := strings.CutPrefix(pos.Filename, wd+string(os.PathSeparator)); ok {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(stdout, "%v: %s [%s]\n", pos, f.Message, f.Analyzer)
		jfs = append(jfs, jsonFinding{
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	if *jsonOut != "" {
		if jfs == nil {
			jfs = []jsonFinding{} // an empty run serializes as [], not null
		}
		report := jsonReport{Findings: jfs, TimingsMS: map[string]float64{}}
		for name, d := range timings {
			// Full float precision, not truncated microseconds: a fast
			// fact-only phase (summary on a leaf package) must serialize
			// as its real sub-millisecond cost, never as 0 — a zero entry
			// is indistinguishable from a phase that never ran.
			report.TimingsMS[name] = d.Seconds() * 1000
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		// An unwritable artifact path is a misconfiguration, not a clean
		// run: CI consumes the artifact, so failing to produce it must
		// fail the step even when the tree has no findings.
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	budgetOK := true
	if *budgetFile != "" {
		data, err := os.ReadFile(*budgetFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var budget map[string]float64
		if err := json.Unmarshal(data, &budget); err != nil {
			fmt.Fprintf(stderr, "cfplint: parsing budget %s: %v\n", *budgetFile, err)
			return 2
		}
		timingsMS := map[string]float64{}
		for name, d := range timings {
			timingsMS[name] = d.Seconds() * 1000
		}
		for _, v := range checkBudget(timingsMS, budget) {
			fmt.Fprintf(stderr, "cfplint: budget: %s\n", v)
			budgetOK = false
		}
	}
	if len(all) > 0 || !budgetOK {
		return 1
	}
	return 0
}

// budgetSlack is the regression threshold: an analyzer may take up to
// this multiple of its committed baseline before the budget check
// fails. 2x absorbs machine and load variance while still catching
// order-of-magnitude blowups (a widening loop that stops converging, a
// fact lookup that turns quadratic).
const budgetSlack = 2.0

// checkBudget compares measured per-analyzer timings (ms) against the
// committed baseline and returns one violation string per problem:
// an analyzer over budgetSlack times its baseline, an analyzer that
// ran with no baseline entry (new analyzer, baseline not updated), or
// a baseline entry for an analyzer that never ran (removed or renamed
// analyzer, stale baseline). Results are sorted for stable output.
func checkBudget(timingsMS, budget map[string]float64) []string {
	var viol []string
	for _, name := range sortedKeys(timingsMS) {
		t := timingsMS[name]
		b, ok := budget[name]
		if !ok {
			viol = append(viol, fmt.Sprintf("analyzer %s ran (%.1fms) but has no baseline entry; add one", name, t))
			continue
		}
		if t > budgetSlack*b {
			viol = append(viol, fmt.Sprintf("analyzer %s took %.1fms, over %gx its %.0fms baseline", name, t, budgetSlack, b))
		}
	}
	for _, name := range sortedKeys(budget) {
		if _, ok := timingsMS[name]; !ok {
			viol = append(viol, fmt.Sprintf("baseline entry %s matches no analyzer that ran; remove it", name))
		}
	}
	return viol
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// topoOrder sorts pkgs so that every package follows the packages it
// imports (restricted to the loaded set), preserving `go list` order
// among independents. Cross-package facts only flow forward, so
// producers must be analyzed first.
func topoOrder(pkgs []*analysis.Package) []*analysis.Package {
	byPath := make(map[string]*analysis.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var out []*analysis.Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *analysis.Package)
	visit = func(p *analysis.Package) {
		if state[p.ImportPath] != 0 {
			return // visiting (go compiler rejects import cycles) or done
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
