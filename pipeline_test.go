package cfpgrowth

import (
	"bytes"
	"fmt"
	"testing"
)

// TestBuildPipelinesAgree: BuildIndex, a Builder and AnalyzeCompression
// share one CFP build stage, so at the same options they build the same
// CFP-array: BuildIndex and Builder serialize byte-identically, and
// AnalyzeCompression reports the index's footprint.
func TestBuildPipelinesAgree(t *testing.T) {
	dbs := map[string]Transactions{
		"empty":          {},
		"none-frequent":  {{1, 2}, {3}, {4, 5, 6}},
		"single-path":    {{1, 2, 3}, {1, 2}, {1, 2, 3}, {1}},
		"empty-txs-only": {{}, {}, {}},
	}
	for seed := int64(0); seed < 4; seed++ {
		dbs[fmt.Sprintf("random-%d", seed)] = randomDB(20+seed, 200+int(seed)*100, 15+int(seed)*5)
	}
	for name, db := range dbs {
		for _, opts := range []Options{
			{MinSupport: 2},
			{MinSupport: 5, Tree: TreeConfig{MaxChainLen: 3}},
			{RelativeSupport: 0.05},
			{RelativeSupport: 0.3, Tree: TreeConfig{DisableChains: true, DisableEmbed: true}},
		} {
			var want []byte
			var ix *Index
			for _, via := range []string{"BuildIndex", "Builder"} {
				got, err := buildIndexVia[via](db, opts)
				if err != nil {
					t.Fatalf("%s %+v %s: %v", name, opts, via, err)
				}
				var buf bytes.Buffer
				if _, err := got.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, ix = buf.Bytes(), got
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s %+v: %s serializes differently from BuildIndex", name, opts, via)
				}
			}
			cs, err := AnalyzeCompression(db, opts)
			if err != nil {
				t.Fatalf("%s %+v AnalyzeCompression: %v", name, opts, err)
			}
			if cs.CFPArrayBytes != ix.Bytes() {
				t.Errorf("%s %+v: AnalyzeCompression CFPArrayBytes %d, Index.Bytes %d", name, opts, cs.CFPArrayBytes, ix.Bytes())
			}
		}
	}
}
