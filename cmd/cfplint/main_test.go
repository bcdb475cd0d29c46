package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoPackagesMatched is the regression test for the silent-success
// bug: patterns that expand to zero analyzable packages must exit 2,
// not pretend the tree is clean.
func TestNoPackagesMatched(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// emptypkg has only _test.go files; without -tests there is
	// nothing to analyze.
	code := run([]string{"./testdata/emptypkg"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Errorf("stderr = %q, want a matched-no-packages message", stderr.String())
	}
}

// TestBadPattern: an unresolvable pattern is a load failure, exit 2.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./no/such/dir"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stderr.Len() == 0 {
		t.Error("expected a load error on stderr")
	}
}

// TestList prints every analyzer and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, name := range []string{
		"summary", "goroutinesafe", "sinkguard",
		"obsguard", "lockorder", "atomicfield", "allochot",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}

// TestFindingsAndJSON analyzes the deliberately-flagged testdata
// package: exit 1, a human-readable line on stdout, and a parseable
// -json artifact.
func TestFindingsAndJSON(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", artifact, "./testdata/flagged"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[goroutinesafe]") {
		t.Errorf("stdout = %q, want a goroutinesafe finding", stdout.String())
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, data)
	}
	if len(report.Findings) == 0 {
		t.Fatal("artifact has no findings, want the goroutinesafe finding")
	}
	f := report.Findings[0]
	if f.Analyzer != "goroutinesafe" || f.Line == 0 || !strings.Contains(f.Message, "not joined") {
		t.Errorf("unexpected finding in artifact: %+v", f)
	}
	if len(report.TimingsMS) == 0 {
		t.Error("artifact has no timings_ms, want per-analyzer wall time")
	}
	if _, ok := report.TimingsMS["goroutinesafe"]; !ok {
		t.Errorf("timings_ms missing goroutinesafe: %v", report.TimingsMS)
	}
}

// TestUnknownDirectiveIsAFinding: a //cfplint:ignore naming no
// analyzer of the suite suppresses nothing anywhere (a retired
// analyzer's directives, say), so the driver reports it. A directive
// naming a suite analyzer that is scoped out of the package stays
// silent.
func TestUnknownDirectiveIsAFinding(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/unknowndirective"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("findings = %q, want exactly the unknown-name one", lines)
	}
	if !strings.Contains(lines[0], "unknown.go:8:") || !strings.Contains(lines[0], "nosuchanalyzer") || !strings.HasSuffix(lines[0], "[cfplint]") {
		t.Errorf("finding = %q, want a cfplint finding naming nosuchanalyzer at unknown.go:8", lines[0])
	}
}

// TestCleanJSONHasEmptyFindings: a clean run with -json still writes a
// parseable artifact whose findings field is [] (not null), so
// downstream consumers never special-case the clean case.
func TestCleanJSONHasEmptyFindings(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", artifact, "../../internal/encoding"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"findings": []`) {
		t.Errorf("artifact = %s, want an explicit empty findings array", data)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, data)
	}
	if report.Findings == nil || len(report.Findings) != 0 {
		t.Errorf("findings = %v, want empty non-nil slice", report.Findings)
	}
	if len(report.TimingsMS) == 0 {
		t.Error("artifact has no timings_ms, want per-analyzer wall time")
	}
}

// TestTimingsOnlyForPhasesThatRan pins the timings contract for
// scoped and fact-only phases: a subset run must emit a timings_ms
// entry for every phase that actually ran on the subset — including
// reporting-free fact phases like summary and sinkguardfacts, at full
// sub-millisecond precision, never truncated to 0 — and no entry at
// all for analyzers the subset scoped out. A zero or missing entry for
// a phase that ran (or a phantom entry for one that did not) would make
// the budget gate and the CI cost history lie about what the suite
// executed.
func TestTimingsOnlyForPhasesThatRan(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	// internal/fptree is in scope for the summary and sinkguardfacts
	// fact phases but out of scope for the synchronized-layer analyzers
	// (lockorder, goroutinesafe).
	code := run([]string{"-json", artifact, "../../internal/fptree"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"summary", "sinkguardfacts"} {
		if v, ok := report.TimingsMS[name]; !ok || v <= 0 {
			t.Errorf("%s ran on the subset but timings_ms[%s] = %v, %v", name, name, v, ok)
		}
	}
	for _, name := range []string{"lockorder", "goroutinesafe"} {
		if v, ok := report.TimingsMS[name]; ok {
			t.Errorf("timings_ms has %s = %v, but the subset scopes it out; entries must exist only for phases that ran", name, v)
		}
	}
	for name, v := range report.TimingsMS {
		if v <= 0 {
			t.Errorf("timings_ms[%s] = %v; phases that ran must report their real nonzero cost", name, v)
		}
	}
}

// TestUnwritableArtifactExits2 is the regression test for the
// lost-artifact bug: when -json points into a directory that does not
// exist, the run must exit 2 even though the analyzed tree is clean —
// CI consumes the artifact, so silently not producing it would turn a
// broken pipeline step into a green check.
func TestUnwritableArtifactExits2(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "no", "such", "dir", "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", artifact, "../../internal/encoding"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if stderr.Len() == 0 {
		t.Error("expected the write error on stderr")
	}
}

// TestCheckBudget exercises the comparison logic: in-budget timings
// pass, >2x timings fail, analyzers without a baseline fail, and
// stale baseline entries fail.
func TestCheckBudget(t *testing.T) {
	budget := map[string]float64{"fast": 10, "slow": 100}
	cases := []struct {
		name    string
		timings map[string]float64
		want    []string // substrings, one per expected violation, in order
	}{
		{"in budget", map[string]float64{"fast": 9, "slow": 150}, nil},
		{"at the 2x boundary", map[string]float64{"fast": 20, "slow": 200}, nil},
		{"over 2x", map[string]float64{"fast": 20.1, "slow": 90},
			[]string{"analyzer fast took 20.1ms, over 2x its 10ms baseline"}},
		{"missing baseline", map[string]float64{"fast": 1, "slow": 1, "brandnew": 0.5},
			[]string{"analyzer brandnew ran (0.5ms) but has no baseline entry"}},
		{"stale baseline", map[string]float64{"fast": 1},
			[]string{"baseline entry slow matches no analyzer that ran"}},
		{"several at once", map[string]float64{"brandnew": 1, "slow": 500},
			[]string{
				"analyzer brandnew ran",
				"analyzer slow took 500.0ms, over 2x its 100ms baseline",
				"baseline entry fast matches no analyzer",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkBudget(tc.timings, budget)
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %q, want %d", got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("violation[%d] = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}

// TestBudgetGateEndToEnd runs the driver with -budget against a
// baseline whose entries can never match the analyzers that actually
// ran, and requires the failure exit plus a violation on stderr; a
// second run against a generous matching baseline must pass. The
// committed budget.json itself is validated in CI (where the full
// ./... suite runs), not here, because a package subset activates a
// subset of analyzers.
func TestBudgetGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	runWith := func(budget string) (int, string) {
		path := filepath.Join(dir, "budget.json")
		if err := os.WriteFile(path, []byte(budget), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-budget", path, "../../internal/encoding"}, &stdout, &stderr)
		return code, stderr.String()
	}
	code, errs := runWith(`{"nosuchanalyzer": 1}`)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errs)
	}
	if !strings.Contains(errs, "cfplint: budget:") {
		t.Errorf("stderr = %q, want budget violations", errs)
	}
	if !strings.Contains(errs, "baseline entry nosuchanalyzer matches no analyzer") {
		t.Errorf("stderr = %q, want the stale-entry violation", errs)
	}

	// Build a matching baseline from the analyzers that actually ran:
	// run once with -json to learn the set, then budget each at a
	// ceiling far above any plausible wall time.
	artifact := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", artifact, "../../internal/encoding"}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline discovery run: exit %d; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	generous := map[string]float64{}
	for name := range report.TimingsMS {
		generous[name] = 1e9
	}
	enc, err := json.Marshal(generous)
	if err != nil {
		t.Fatal(err)
	}
	if code, errs := runWith(string(enc)); code != 0 {
		t.Fatalf("generous baseline: exit = %d, want 0; stderr: %s", code, errs)
	}

	// A malformed baseline is a misconfiguration: exit 2.
	if code, _ := runWith(`{"not json`); code != 2 {
		t.Fatalf("malformed baseline: exit = %d, want 2", code)
	}
}
