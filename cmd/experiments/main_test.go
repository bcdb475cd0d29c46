package main

import (
	"slices"
	"testing"
)

func TestResolveTargets(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string // sorted runs; nil means the targets are rejected
	}{
		{[]string{"table1"}, []string{"table1"}},
		{[]string{"fig7a", "fig7c"}, []string{"fig7"}},
		{[]string{"fig8b", "fig8c"}, []string{"fig8a", "fig8c"}},
		{[]string{"ablation", "fig6b"}, []string{"ablation", "fig6"}},
		{[]string{"all"}, []string{"ablation", "fig6", "fig7", "fig8a", "fig8c", "fig8d", "table1", "table2", "table3"}},
		{nil, nil},
		{[]string{"fig9"}, nil},
		{[]string{"tabel1"}, nil},
		{[]string{"table1", "bench"}, nil},
	} {
		got, err := resolveTargets(c.args)
		if c.want == nil {
			if err == nil {
				t.Errorf("resolveTargets(%q) = %v, want an error", c.args, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveTargets(%q): %v", c.args, err)
			continue
		}
		var runs []string
		for r := range got {
			runs = append(runs, r)
		}
		slices.Sort(runs)
		if !slices.Equal(runs, c.want) {
			t.Errorf("resolveTargets(%q) = %q, want %q", c.args, runs, c.want)
		}
	}
}
