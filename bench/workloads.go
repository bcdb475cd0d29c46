package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"cfpgrowth"
	"cfpgrowth/internal/dataset"
	"cfpgrowth/internal/quest"
	"cfpgrowth/internal/synth"
)

// kind selects the job a workload's repetitions run.
type kind int

const (
	// kindBatch mines the FIMI file with cfpgrowth.Mine: serially, and
	// then with Parallel: 2 when the workload asks for it.
	kindBatch kind = iota
	// kindIndex loads a saved index, answers point queries on it and
	// re-mines it at its base support.
	kindIndex
	// kindStream feeds the file to an UpdatableIndex in batches and
	// mines it after each batch.
	kindStream
)

// workload is one set of inputs with the job that runs on them. The
// sizes are chosen so that one job takes one to three seconds on two
// cores: a run then fits five or more fresh-process repetitions.
type workload struct {
	name, why string
	kind      kind
	// generate returns the database for seed at the given extra scale
	// divisor (1 in the benchmark, larger in the smoke test).
	generate func(seed int64, scale int) dataset.Slice
	// relSup is ξ relative to the number of transactions; for the index
	// workload it is the base support the index is built at.
	relSup float64
	// parallel adds a Parallel: 2 mine after the serial one.
	parallel bool
}

// queriesPerRep is the number of timed point queries an index job
// issues after the one that completes its load: enough that p99.9 has
// ten samples beyond it.
const queriesPerRep = 10_000

// streamBatches is the number of batches a stream job adds, mining
// after each.
const streamBatches = 5

var workloads = []workload{
	{
		name:     "quest-mine",
		why:      "the paper's Quest data: about 70% of the serial mine is the recursion over thousands of conditional trees",
		kind:     kindBatch,
		generate: questGen(2000),
		relSup:   0.01,
		parallel: true,
	},
	{
		name:     "kosarak-build",
		why:      "long sparse click data with few frequent itemsets: parse, count and insert dominate, so mine-layer changes should not move it",
		kind:     kindBatch,
		generate: synthGen("kosarak", 2),
		relSup:   0.01,
	},
	{
		name:     "accidents-dense",
		why:      "dense census-style data: deep shared prefixes, huge pattern bases, little output, and only ~34 top-level jobs for the 2-worker pool",
		kind:     kindBatch,
		generate: synthGen("accidents", 10),
		// At 50% the pairs of the dominant attribute values sit right at
		// the threshold, and the work changes with the seed.
		relSup:   0.45,
		parallel: true,
	},
	{
		name:     "retail-index",
		why:      "build once, query many: point queries on a loaded CFP-array beside an output-heavy re-mine of the same array",
		kind:     kindIndex,
		generate: synthGen("retail", 1),
		relSup:   0.0035,
	},
	{
		name:     "kosarak-stream",
		why:      "writes beside reads: unpruned arrival-order inserts into a CFP-tree, with a full re-conversion at every refresh",
		kind:     kindStream,
		generate: synthGen("kosarak", 6),
		relSup:   0.01,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// questPool is how many times more transactions than it returns
// questGen generates.
const questPool = 4

// questGen returns Quest1 at the given scale divisor, drawn as a seeded
// random sample of a questPool times larger Quest1 database generated
// at the generator's built-in seed. The seed thus picks the
// transactions but not the pattern model: a new model per seed changes
// the number of frequent itemsets by ±25%, a new sample by ±3%.
func questGen(scale int) func(int64, int) dataset.Slice {
	return func(seed int64, extra int) dataset.Slice {
		pool := quest.Generate(quest.Quest1(scale * extra / questPool))
		db := make(dataset.Slice, len(pool)/questPool)
		rng := rand.New(rand.NewSource(seed))
		for i, j := range rng.Perm(len(pool))[:len(db)] {
			db[i] = pool[j]
		}
		return db
	}
}

// synthGen returns the named FIMI stand-in at the given scale divisor.
// Seed 1 is the profile's built-in seed; any seed draws a new sample
// from the same shape parameters.
func synthGen(name string, scale int) func(int64, int) dataset.Slice {
	return func(seed int64, extra int) dataset.Slice {
		p, ok := synth.ByName(name)
		if !ok {
			panic("bench: no synth profile " + name)
		}
		p.Seed += seed - 1
		return p.Generate(scale * extra)
	}
}

// spec is everything a repetition's child process is told: the paths of
// the generated files and the supports to mine at. The program under
// test sees only the FIMI or index file.
type spec struct {
	Workload string `json:"workload"`
	FIMI     string `json:"fimi"`
	Index    string `json:"index,omitempty"`
	Queries  string `json:"queries,omitempty"`
	MinSup   uint64 `json:"min_sup"`
	NumTx    int    `json:"num_tx"`
	Trace    bool   `json:"trace"`
}

// input is one set-up's result: the spec for the children, plus the
// in-memory database and queries the reference answers are computed
// from.
type input struct {
	spec    spec
	db      dataset.Slice
	queries dataset.Slice
}

// setUp generates the workload's inputs for seed into dir and runs the
// program's own set-up (building and saving the index). Everything it
// does happens before the first timed call of a repetition.
func setUp(w *workload, seed int64, scale int, dir string) (*input, error) {
	db := w.generate(seed, scale)
	in := &input{db: db, spec: spec{
		Workload: w.name,
		FIMI:     filepath.Join(dir, "input.fimi"),
		MinSup:   dataset.AbsoluteSupport(w.relSup, uint64(len(db))),
		NumTx:    len(db),
	}}
	if err := dataset.WriteFile(in.spec.FIMI, db); err != nil {
		return nil, err
	}
	if w.kind != kindIndex {
		return in, nil
	}
	in.spec.Index = filepath.Join(dir, "input.cfpi")
	in.spec.Queries = filepath.Join(dir, "queries.fimi")
	ix, err := cfpgrowth.BuildIndex(cfpgrowth.File(in.spec.FIMI), cfpgrowth.Options{MinSupport: in.spec.MinSup})
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	if err := cfpgrowth.SaveIndex(in.spec.Index, ix); err != nil {
		return nil, fmt.Errorf("save index: %w", err)
	}
	in.queries = makeQueries(db, seed, 1+queriesPerRep)
	if err := dataset.WriteFile(in.spec.Queries, in.queries); err != nil {
		return nil, err
	}
	return in, nil
}

// makeQueries draws n point queries of 2–4 distinct items, each taken
// from one random transaction, so most queries ask about items that
// actually occur together.
func makeQueries(db dataset.Slice, seed int64, n int) dataset.Slice {
	rng := rand.New(rand.NewSource(seed))
	qs := make(dataset.Slice, 0, n)
	for len(qs) < n {
		tx := db[rng.Intn(len(db))]
		if len(tx) < 2 {
			continue
		}
		k := min(2+rng.Intn(3), len(tx))
		q := make([]uint32, 0, k)
		for _, i := range rng.Perm(len(tx))[:k] {
			q = append(q, tx[i])
		}
		qs = append(qs, q)
	}
	return qs
}
