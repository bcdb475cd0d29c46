package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"
)

// A Finding is one resolved diagnostic: a position, the analyzer that
// produced it, and the message. Diagnostics suppressed by an ignore
// directive are dropped before they become Findings.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// ignoreRe matches a suppression directive. The reason group is what
// makes a suppression auditable; it must be non-empty.
var ignoreRe = regexp.MustCompile(`^//cfplint:ignore\s+([A-Za-z0-9_,]+)\s*(.*)$`)

// directive is one parsed //cfplint:ignore comment.
type directive struct {
	names  map[string]bool
	reason string
	pos    token.Position
	used   bool
}

// covers reports whether the directive suppresses a diagnostic of the
// named analyzer at pos: same file, on the flagged line or the line
// directly above it.
func (d *directive) covers(name string, pos token.Position) bool {
	return d.names[name] && d.reason != "" && d.pos.Filename == pos.Filename &&
		(d.pos.Line == pos.Line || d.pos.Line == pos.Line-1)
}

// Run applies analyzers to pkg and returns the surviving findings
// sorted by position. Directive problems (a missing reason, a
// directive that suppressed nothing) are reported as findings of the
// pseudo-analyzer "cfplint" so that stale suppressions rot loudly, not
// silently. Each call uses a fresh fact store; drivers analyzing many
// packages should thread one store through RunWithFacts in dependency
// order so cross-package facts flow.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	return RunWithFacts(pkg, analyzers, NewFactStore())
}

// RunWithFacts is Run with a caller-owned fact store: facts exported
// while analyzing earlier packages (the dependencies) are visible to
// analyzers of later ones. The analyzer list is expanded with the
// transitive Requires closure and topologically sorted so producers
// run before consumers.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Finding, error) {
	findings, _, err := RunWithFactsTimed(pkg, analyzers, facts)
	return findings, err
}

// RunWithFactsTimed is RunWithFacts reporting, additionally, how much
// wall time each analyzer's Run spent on this package (keyed by
// analyzer name, Requires-expanded entries included). Drivers
// accumulate these across packages into the per-analyzer timing
// breakdown of the -json artifact.
func RunWithFactsTimed(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Finding, map[string]time.Duration, error) {
	analyzers, err := expand(analyzers)
	if err != nil {
		return nil, nil, err
	}
	dirs := collectDirectives(pkg)
	var findings []Finding
	timings := make(map[string]time.Duration, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			facts:     facts,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			for _, dir := range dirs {
				if dir.covers(name, pos) {
					dir.used = true
					return
				}
			}
			findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		start := time.Now()
		err := a.Run(pass)
		timings[name] += time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, d := range dirs {
		switch {
		case d.reason == "":
			findings = append(findings, Finding{
				Analyzer: "cfplint",
				Pos:      d.pos,
				Message:  "//cfplint:ignore directive without a reason",
			})
		case !d.used && anyKnown(d.names, known):
			findings = append(findings, Finding{
				Analyzer: "cfplint",
				Pos:      d.pos,
				Message:  "//cfplint:ignore directive suppresses nothing (stale?)",
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, timings, nil
}

// expand returns the transitive Requires closure of analyzers in
// topological order (dependencies first), preserving the relative
// order of independent entries. A Requires cycle is an error.
func expand(analyzers []*Analyzer) ([]*Analyzer, error) {
	var out []*Analyzer
	state := make(map[*Analyzer]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analysis: Requires cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnknownDirectives reports, as findings of the pseudo-analyzer
// "cfplint", every name in pkg's //cfplint:ignore directives that names
// no analyzer of suite or of its Requires closure. Run leaves a
// directive for an analyzer it did not run alone, since that analyzer
// may be scoped out of the package; a name no suite analyzer has
// suppresses nothing anywhere, so drivers report it here.
func UnknownDirectives(pkg *Package, suite []*Analyzer) ([]Finding, error) {
	all, err := expand(suite)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	var out []Finding
	for _, d := range collectDirectives(pkg) {
		names := make([]string, 0, len(d.names))
		for n := range d.names {
			if !known[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, Finding{
				Analyzer: "cfplint",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//cfplint:ignore names %s, which is not an analyzer of the suite", n),
			})
		}
	}
	return out, nil
}

// anyKnown reports whether the directive names at least one analyzer of
// the current run; directives for analyzers that did not run are left
// alone rather than flagged as stale.
func anyKnown(names, known map[string]bool) bool {
	for n := range names {
		if known[n] {
			return true
		}
	}
	return false
}

// collectDirectives parses every //cfplint:ignore comment in pkg.
func collectDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				d := &directive{
					names:  make(map[string]bool),
					reason: strings.TrimSpace(m[2]),
					pos:    pkg.Fset.Position(c.Slash),
				}
				for _, n := range strings.Split(m[1], ",") {
					d.names[n] = true
				}
				out = append(out, d)
			}
		}
	}
	return out
}
