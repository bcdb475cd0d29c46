package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cfpgrowth/internal/dataset"
)

// TestMain runs the command itself when the test binary is started as
// a child by runCfpmine.
func TestMain(m *testing.M) {
	if os.Getenv("CFPMINE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCfpmine runs cfpmine with args in a child process and returns its
// exit status and standard error.
func runCfpmine(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CFPMINE_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// sortedLines returns the lines of the file at path, sorted.
func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	slices.Sort(lines)
	return lines
}

// TestLoadIndexSameMinsup: an index saved at -minsup loads at the same
// -minsup and mines what -input mines. 1% of 12,345 transactions is
// 123.45, so the support must be rounded up on both sides.
func TestLoadIndexSameMinsup(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	db := make(dataset.Slice, 12345)
	for i := range db {
		tx := make([]uint32, 2+rng.Intn(6))
		for j := range tx {
			tx[j] = uint32(rng.Intn(60))
		}
		db[i] = tx
	}
	in, ix := filepath.Join(dir, "db.fimi"), filepath.Join(dir, "db.cfpi")
	if err := dataset.WriteFile(in, db); err != nil {
		t.Fatal(err)
	}
	fromInput, fromIndex := filepath.Join(dir, "input.out"), filepath.Join(dir, "index.out")
	if code, stderr := runCfpmine(t, "-input", in, "-minsup", "0.01", "-saveindex", ix, "-out", fromInput); code != 0 {
		t.Fatalf("-input -saveindex: exit %d: %s", code, stderr)
	}
	if code, stderr := runCfpmine(t, "-loadindex", ix, "-minsup", "0.01", "-out", fromIndex); code != 0 {
		t.Fatalf("-loadindex at the same -minsup: exit %d: %s", code, stderr)
	}
	want, got := sortedLines(t, fromInput), sortedLines(t, fromIndex)
	if len(want) < 2 || !slices.Equal(got, want) {
		t.Errorf("-loadindex mined %d itemsets, -input %d; want the same itemsets", len(got), len(want))
	}
	// The flags a loaded index cannot honour are refused, and a refused
	// trace file is not written.
	trace := filepath.Join(dir, "trace.out")
	for _, flags := range [][]string{
		{"-count"}, {"-closed"}, {"-maximal"}, {"-topk", "3"}, {"-maxlen", "2"},
		{"-parallel", "2"}, {"-timeout", "1m"}, {"-max-bytes", "1000000"}, {"-max-itemsets", "5"},
		{"-trace", trace}, {"-trace-out", trace}, {"-sample", "50ms"}, {"-metrics-addr", "localhost:0"},
	} {
		args := append([]string{"-loadindex", ix, "-minsup", "0.01", "-out", fromIndex}, flags...)
		if code, stderr := runCfpmine(t, args...); code != 2 || !strings.Contains(stderr, flags[0]) {
			t.Errorf("-loadindex %s: exit %d, stderr %q; want exit 2 naming the flag", flags[0], code, stderr)
		}
		if _, err := os.Stat(trace); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-loadindex %s: trace file stat: %v; want none written", flags[0], err)
		}
	}
}
