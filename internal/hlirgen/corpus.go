package hlirgen

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/hlir"
)

// The corpus layer turns the generator into a reproducible benchmark
// suite: CorpusItem(seed, index) is a pure function, so a corpus is fully
// described by its seed and size, and Corpus(seed, n) regenerates it.
// The manifest format records exactly that, plus per-item labels for
// stratified analysis, so corpora need never be checked in.

// Item is one generated corpus entry.
type Item struct {
	// Index is the item's position in its corpus.
	Index int
	// Seed is the per-item generator seed (derived from the corpus seed).
	Seed uint64
	// Params are the generator parameters drawn for this item.
	Params Params
	// Stratum labels the item for stratified analysis.
	Stratum Stratum
	// ILP is the static ILP estimate behind Stratum.ILP.
	ILP float64
	// Prog is the generated program.
	Prog *hlir.Program
	// Data is its input data.
	Data *core.Data
}

// strata is the stratification grid: depth {1,2,3} x reuse {5 classes}
// x {chain, wide} = 30 combinations, visited round-robin by index.
const strataCombos = 3 * numReuse * 2

// CorpusItem deterministically generates the index-th item of the corpus
// identified by corpusSeed. Two calls with equal arguments return
// byte-identical programs and data.
func CorpusItem(corpusSeed uint64, index int) (Item, error) {
	if index < 0 {
		return Item{}, fmt.Errorf("hlirgen: negative corpus index %d", index)
	}
	combo := index % strataCombos
	wide := combo >= strataCombos/2
	inner := combo % (strataCombos / 2)
	depth := inner%3 + 1
	reuse := Reuse(inner / 3)

	itemSeed := mix(corpusSeed, uint64(index))
	r := newRNG(itemSeed)
	pr := Params{
		Depth:  depth,
		Reuse:  reuse,
		Wide:   wide,
		Trip:   6 + r.n(12),
		Conds:  r.n(3) > 0,
		IntMix: r.n(2) == 0,
		Stmts:  1 + r.n(3),
	}
	p, d, err := Generate(r.next(), pr)
	if err != nil {
		return Item{}, err
	}
	p.Name = fmt.Sprintf("gen%05d", index)
	ilp := EstimateILP(p)
	return Item{
		Index:   index,
		Seed:    itemSeed,
		Params:  pr,
		Stratum: Stratum{Depth: depth, Reuse: reuse, ILP: ilpClass(ilp)},
		ILP:     ilp,
		Prog:    p,
		Data:    d,
	}, nil
}

// Corpus generates the first n items of the corpus identified by seed.
func Corpus(seed uint64, n int) ([]Item, error) {
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		it, err := CorpusItem(seed, i)
		if err != nil {
			return nil, fmt.Errorf("hlirgen: corpus seed %d item %d: %w", seed, i, err)
		}
		items = append(items, it)
	}
	return items, nil
}

// FromSeed generates one program with parameters drawn entirely from the
// seed — the entry point the fuzz targets use.
func FromSeed(seed uint64) (Item, error) {
	r := newRNG(seed)
	pr := Params{
		Depth:  1 + r.n(3),
		Reuse:  Reuse(r.n(numReuse)),
		Wide:   r.b(),
		Trip:   4 + r.n(16),
		Conds:  r.b(),
		IntMix: r.b(),
		Stmts:  1 + r.n(4),
	}
	p, d, err := Generate(r.next(), pr)
	if err != nil {
		return Item{}, err
	}
	ilp := EstimateILP(p)
	return Item{
		Seed:    seed,
		Params:  pr,
		Stratum: Stratum{Depth: pr.Depth, Reuse: pr.Reuse, ILP: ilpClass(ilp)},
		ILP:     ilp,
		Prog:    p,
		Data:    d,
	}, nil
}

// mix derives a per-item seed from the corpus seed and index (SplitMix64
// over the concatenation, so neighbouring indices are uncorrelated).
func mix(seed, index uint64) uint64 {
	r := newRNG(seed ^ (index * 0xd1342543de82ef95))
	r.next()
	return r.next()
}

// ManifestEntry is one line of a corpus manifest: it names an item's
// CorpusSeed and Index, from which CorpusItem regenerates it exactly,
// and its labels.
type ManifestEntry struct {
	Index      int     `json:"index"`
	CorpusSeed uint64  `json:"corpus_seed"`
	Name       string  `json:"name"`
	Stratum    string  `json:"stratum"`
	Stmts      int     `json:"stmts"`
	ILP        float64 `json:"ilp"`
}

// EncodeManifest renders items as deterministic JSONL.
func EncodeManifest(corpusSeed uint64, items []Item) []byte {
	var buf bytes.Buffer
	for _, it := range items {
		e := ManifestEntry{
			Index:      it.Index,
			CorpusSeed: corpusSeed,
			Name:       it.Prog.Name,
			Stratum:    it.Stratum.Label(),
			Stmts:      CountStmts(it.Prog.Body),
			ILP:        it.ILP,
		}
		b, err := json.Marshal(e)
		if err != nil {
			// Marshalling a struct of scalars cannot fail.
			panic(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
