// Streaming: incremental mining over a live event stream. Orders
// arrive one at a time with string product labels; an UpdatableIndex
// (CanTree-style fixed item order over the CFP structures) absorbs
// each order as it happens and can be mined at any moment — here after
// every "day" — without re-scanning history: each mine projects the
// running tree onto the products frequent so far.
package main

import (
	"fmt"
	"math/rand"

	"cfpgrowth"
)

// catalog is the shop's product list; co-purchase structure is planted
// via the bundles below.
var catalog = []string{
	"espresso-beans", "grinder", "milk-frother", "filter-papers",
	"teapot", "green-tea", "honey", "mug", "descaler", "scale",
}

var bundles = [][]string{
	{"espresso-beans", "grinder", "scale"},
	{"teapot", "green-tea", "honey"},
	{"espresso-beans", "milk-frother", "mug"},
}

func main() {
	var enc cfpgrowth.LabelEncoder
	idx := cfpgrowth.NewUpdatableIndex(cfpgrowth.TreeConfig{})
	rng := rand.New(rand.NewSource(42))

	for day := 1; day <= 3; day++ {
		// A few hundred orders arrive during the day.
		for o := 0; o < 300; o++ {
			var order []string
			b := bundles[rng.Intn(len(bundles))]
			for _, p := range b {
				if rng.Float64() < 0.8 {
					order = append(order, p)
				}
			}
			// Some random extras.
			for rng.Float64() < 0.3 {
				order = append(order, catalog[rng.Intn(len(catalog))])
			}
			if len(order) == 0 {
				continue
			}
			idx.Add(enc.Encode(order))
		}

		// End of day: mine the running index (no rescan).
		minSup := idx.NumTx() / 10 // product sets in ≥10% of all orders so far
		sets, err := idx.MineAll(minSup)
		if err != nil {
			panic(err)
		}
		fmt.Printf("day %d: %d orders so far, tree %d B, %d product sets in ≥10%% of orders\n",
			day, idx.NumTx(), idx.TreeBytes(), len(sets))
		shown := 0
		for _, s := range sets {
			if len(s.Items) < 2 {
				continue
			}
			fmt.Printf("   %v  (%d orders)\n", enc.DecodeSet(s.Items), s.Support)
			shown++
			if shown == 3 {
				break
			}
		}
	}
}
