package apriori

import (
	"reflect"
	"testing"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestGenerateJoinsSharedPrefixes(t *testing.T) {
	lk := [][]uint32{{1, 2}, {1, 3}, {1, 4}, {2, 3}}
	sortSets(lk)
	cands := generate(lk)
	// Joins: {1,2}+{1,3}->{1,2,3} (pruned? subsets {2,3} frequent,
	// {1,2},{1,3} frequent -> kept), {1,2}+{1,4}->{1,2,4} (needs {2,4}:
	// absent -> pruned), {1,3}+{1,4}->{1,3,4} (needs {3,4}: absent ->
	// pruned).
	want := [][]uint32{{1, 2, 3}}
	if !reflect.DeepEqual(cands, want) {
		t.Errorf("generate = %v, want %v", cands, want)
	}
}

func TestGenerateNoSharedPrefix(t *testing.T) {
	lk := [][]uint32{{1, 2}, {3, 4}}
	if cands := generate(lk); len(cands) != 0 {
		t.Errorf("generate = %v, want none", cands)
	}
}

func TestPrunedDetectsInfrequentSubset(t *testing.T) {
	freq := map[string]struct{}{
		key([]uint32{1, 2}): {},
		key([]uint32{1, 3}): {},
		// {2,3} missing
	}
	if !pruned([]uint32{1, 2, 3}, freq) {
		t.Error("candidate with infrequent subset not pruned")
	}
	freq[key([]uint32{2, 3})] = struct{}{}
	if pruned([]uint32{1, 2, 3}, freq) {
		t.Error("valid candidate pruned")
	}
}

func TestTrieCounting(t *testing.T) {
	cands := [][]uint32{{0, 1}, {0, 2}, {1, 2}}
	root, nodes := buildTrie(cands)
	if nodes != 1+2+3 {
		t.Errorf("trie nodes = %d, want 6", nodes)
	}
	countTrie(root, []uint32{0, 1, 2}, 2)
	countTrie(root, []uint32{0, 2}, 2)
	if got := lookup(root, []uint32{0, 1}); got != 1 {
		t.Errorf("count{0,1} = %d, want 1", got)
	}
	if got := lookup(root, []uint32{0, 2}); got != 2 {
		t.Errorf("count{0,2} = %d, want 2", got)
	}
	if got := lookup(root, []uint32{1, 2}); got != 1 {
		t.Errorf("count{1,2} = %d, want 1", got)
	}
	if got := lookup(root, []uint32{9, 9}); got != 0 {
		t.Errorf("count of absent candidate = %d", got)
	}
}

func TestMinerEndToEnd(t *testing.T) {
	db := dataset.Slice{{1, 2, 3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}}
	got, err := mine.Run(Miner{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mine.Run(mine.BruteForce{}, db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := mine.Diff("apriori", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestMinerTracksCandidateMemory(t *testing.T) {
	var tr mine.Control
	db := dataset.Slice{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if err := (Miner{Ctl: &tr}).Mine(db, 2, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if tr.PeakBytes() <= 0 {
		t.Error("candidate memory not tracked")
	}
	if tr.Bytes() != 0 {
		t.Errorf("tracker imbalance: %d", tr.Bytes())
	}
}
