package eclat

import (
	"reflect"
	"testing"
	"testing/quick"

	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/mine"
)

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1, 5, 9}, []uint32{2, 6, 10}, nil},
		{nil, []uint32{1}, nil},
		{[]uint32{7}, []uint32{7}, []uint32{7}},
	}
	for _, c := range cases {
		if got := intersect(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectCommutes(t *testing.T) {
	f := func(a, b []uint32) bool {
		sortDedupe(&a)
		sortDedupe(&b)
		return reflect.DeepEqual(intersect(a, b), intersect(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortDedupe(s *[]uint32) {
	m := map[uint32]struct{}{}
	for _, v := range *s {
		m[v] = struct{}{}
	}
	out := (*s)[:0]
	for v := uint32(0); len(m) > 0 && v < 1<<16; v++ {
		if _, ok := m[v]; ok {
			out = append(out, v)
			delete(m, v)
		}
	}
	*s = out
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
	if d := mine.Diff("eclat", got, "bruteforce", want); d != "" {
		t.Errorf("results differ:\n%s", d)
	}
}

func TestMemoryIncludesResidentDatabase(t *testing.T) {
	// LCM-family: footprint must grow with the number of transactions
	// even when the frequent structure stays the same — the paper's
	// §4.5 observation on Quest2.
	small := dataset.Slice{{1, 2}, {1, 2}, {1, 2}}
	var big dataset.Slice
	for i := 0; i < 10; i++ {
		big = append(big, small...)
	}
	var trSmall, trBig mine.Control
	if err := (Miner{Ctl: &trSmall}).Mine(small, 3, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if err := (Miner{Ctl: &trBig}).Mine(big, 30, &mine.CountSink{}); err != nil {
		t.Fatal(err)
	}
	if trBig.PeakBytes() <= trSmall.PeakBytes() {
		t.Errorf("peak did not grow with transactions: %d vs %d", trBig.PeakBytes(), trSmall.PeakBytes())
	}
}
