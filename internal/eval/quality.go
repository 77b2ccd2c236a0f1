package eval

import (
	"fmt"
	"math/rand"

	"pivote/internal/expand"
	"pivote/internal/heatmap"
	"pivote/internal/index"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
)

// Config sizes the measured experiments. Zero values take the defaults of
// DefaultConfig.
type Config struct {
	Scale         int   // synthetic film count
	Seed          int64 // synthetic + workload seed
	Queries       int   // queries per experiment
	SeedsPerQuery int   // m, the number of example entities
	MinConcept    int   // smallest eligible hidden-concept size
	MaxConcept    int   // largest eligible hidden-concept size
	TopK          int   // ranking depth handed to the metrics
}

// DefaultConfig is the full experiment configuration: cmd/pivote-eval's
// defaults (scale 1000, 100 queries), which DESIGN.md's experiment index
// describes.
func DefaultConfig() Config {
	return Config{
		Scale:         1000,
		Seed:          42,
		Queries:       100,
		SeedsPerQuery: 3,
		MinConcept:    8,
		MaxConcept:    150,
		TopK:          100,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.SeedsPerQuery <= 0 {
		c.SeedsPerQuery = d.SeedsPerQuery
	}
	if c.MinConcept <= 0 {
		c.MinConcept = d.MinConcept
	}
	if c.MaxConcept <= 0 {
		c.MaxConcept = d.MaxConcept
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	return c
}

// runExpansion evaluates one expansion method over a workload.
func runExpansion(x *expand.Expander, method expand.Method, queries []ExpansionQuery, topK int) Metrics {
	var m Metrics
	for _, q := range queries {
		ranked := x.ExpandWith(method, q.Seeds, topK)
		ids := make([]rdf.TermID, len(ranked))
		for i, r := range ranked {
			ids[i] = r.Entity
		}
		m.Accumulate(ids, q.Relevant)
	}
	return m.Finalize()
}

// RunE5 measures expansion quality: PivotE's SF ranking vs the four
// baselines on hidden-category recovery.
func RunE5(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	queries := ExpansionWorkload(env.Graph, rng, cfg.Queries, cfg.SeedsPerQuery, cfg.MinConcept, cfg.MaxConcept)
	t := Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Expansion quality (%d queries, %d seeds, scale %d)", len(queries), cfg.SeedsPerQuery, cfg.Scale),
		Header: []string{"method", "MAP", "P@10", "nDCG@10", "MRR", "R@50"},
	}
	for _, method := range expand.Methods() {
		en := semfeat.NewEngine(env.Graph)
		x := expand.New(en, expand.Options{SameTypeOnly: true, TopFeatures: 50})
		m := runExpansion(x, method, queries, cfg.TopK)
		t.AddRow(method.String(), f3(m.MAP), f3(m.P10), f3(m.NDCG10), f3(m.MRR), f3(m.R50))
	}
	t.Notes = "hidden concepts are categories; seeds sampled per query; higher is better"
	return t
}

// RunE6 measures seed-count sensitivity: MAP as a function of the number
// of example entities m = 1..5 for the three strongest methods.
func RunE6(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	methods := []expand.Method{expand.MethodPivotE, expand.MethodCommonNeighbors, expand.MethodPPR}
	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("MAP vs number of seeds (scale %d)", cfg.Scale),
		Header: []string{"seeds m", "PivotE-SF", "CommonNeighbors", "PPR"},
	}
	for m := 1; m <= 5; m++ {
		rng := rand.New(rand.NewSource(cfg.Seed + 60 + int64(m)))
		queries := ExpansionWorkload(env.Graph, rng, cfg.Queries, m, cfg.MinConcept, cfg.MaxConcept)
		row := []string{fmt.Sprintf("%d", m)}
		for _, method := range methods {
			en := semfeat.NewEngine(env.Graph)
			x := expand.New(en, expand.Options{SameTypeOnly: true, TopFeatures: 50})
			mm := runExpansion(x, method, queries, cfg.TopK)
			row = append(row, f3(mm.MAP))
		}
		t.AddRow(row...)
	}
	t.Notes = "each m uses a fresh workload of the same size; MAP reported"
	return t
}

// RunE7 measures retrieval quality of the search engine: the paper's
// five-field MLM vs BM25F, names-only LM and boolean AND on known-item
// queries.
func RunE7(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	queries := RetrievalWorkload(env.Graph, rng, cfg.Queries*3)
	eng := search.NewEngine(env.Graph)
	t := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Retrieval quality (%d known-item queries, scale %d)", len(queries), cfg.Scale),
		Header: []string{"model", "MRR", "MAP", "S@1", "S@10"},
	}
	for _, model := range []search.Model{search.ModelMLM, search.ModelBM25F, search.ModelLMNames, search.ModelBoolean} {
		var m Metrics
		s1, s10 := 0.0, 0.0
		for _, q := range queries {
			hits := eng.Search(q.Text, 100, model)
			ids := make([]rdf.TermID, len(hits))
			for i, h := range hits {
				ids[i] = h.Entity
			}
			m.Accumulate(ids, q.Relevant)
			if len(ids) > 0 && q.Relevant[ids[0]] {
				s1++
			}
			s10 += RecallAt(ids, q.Relevant, 10)
		}
		fm := m.Finalize()
		n := float64(len(queries))
		t.AddRow(model.String(), f3(fm.MRR), f3(fm.MAP), f3(s1/n), f3(s10/n))
	}
	t.Notes = "known-item search over exact/partial/alias/category-hint query forms"
	return t
}

// RunA1 measures the error-tolerant back-off ablation: PivotE with and
// without the category back-off of p(π|e).
func RunA1(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 5)) // E5's workload for comparability
	queries := ExpansionWorkload(env.Graph, rng, cfg.Queries, cfg.SeedsPerQuery, cfg.MinConcept, cfg.MaxConcept)
	t := Table{
		ID:     "A1",
		Title:  "Ablation: error-tolerant p(π|e) vs strict membership",
		Header: []string{"variant", "MAP", "P@10", "R@50"},
	}
	for _, variant := range []struct {
		name string
		opts semfeat.Options
	}{
		{"error-tolerant (paper)", semfeat.Options{}},
		{"strict", semfeat.Options{Strict: true}},
	} {
		en := semfeat.NewEngineWithOptions(env.Graph, variant.opts)
		x := expand.New(en, expand.Options{SameTypeOnly: true, TopFeatures: 50})
		m := runExpansion(x, expand.MethodPivotE, queries, cfg.TopK)
		t.AddRow(variant.name, f3(m.MAP), f3(m.P10), f3(m.R50))
	}
	t.Notes = "same workload as E5"
	return t
}

// RunA2 measures the discriminability ablation: d(π)=1/‖E(π)‖ vs d(π)=1.
func RunA2(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	queries := ExpansionWorkload(env.Graph, rng, cfg.Queries, cfg.SeedsPerQuery, cfg.MinConcept, cfg.MaxConcept)
	t := Table{
		ID:     "A2",
		Title:  "Ablation: IDF-like discriminability vs uniform",
		Header: []string{"variant", "MAP", "P@10", "R@50"},
	}
	for _, variant := range []struct {
		name string
		opts semfeat.Options
	}{
		{"d(π)=1/|E(π)| (paper)", semfeat.Options{}},
		{"d(π)=1 (uniform)", semfeat.Options{UniformDiscriminability: true}},
	} {
		en := semfeat.NewEngineWithOptions(env.Graph, variant.opts)
		x := expand.New(en, expand.Options{SameTypeOnly: true, TopFeatures: 50})
		m := runExpansion(x, expand.MethodPivotE, queries, cfg.TopK)
		t.AddRow(variant.name, f3(m.MAP), f3(m.P10), f3(m.R50))
	}
	t.Notes = "same workload as E5"
	return t
}

// RunA4 measures the heat-map quantization ablation: quantile-based
// seven-level assignment (the implementation choice documented in
// DESIGN.md) vs a naive linear split of the value range. The metric is
// how many of the seven shades a rendered explanation actually uses —
// visual discrimination, the property §2.3.2's "seven levels" exist for.
func RunA4(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	queries := ExpansionWorkload(env.Graph, rng, cfg.Queries/2, 2, cfg.MinConcept, cfg.MaxConcept)
	en := semfeat.NewEngine(env.Graph)
	x := expand.New(en, expand.Options{SameTypeOnly: true})
	t := Table{
		ID:     "A4",
		Title:  "Ablation: heat-map level quantization",
		Header: []string{"quantization", "mean populated levels (of 7)", "share of non-zero cells in bottom shade"},
	}
	for _, variant := range []struct {
		name string
		mode heatmap.Quantization
	}{
		{"quantile (ours)", heatmap.QuantileLevels},
		{"linear", heatmap.LinearLevels},
	} {
		totalLevels, totalBottom, totalNonzero := 0.0, 0, 0
		n := 0
		for _, q := range queries {
			ranked, feats := x.Expand(q.Seeds, 12)
			if len(ranked) == 0 || len(feats) == 0 {
				continue
			}
			m := heatmap.BuildWith(en, ranked, feats, variant.mode)
			totalLevels += float64(m.PopulatedLevels())
			for i := range m.Level {
				for j := range m.Level[i] {
					if m.Values[i][j] > 0 {
						totalNonzero++
						if m.Level[i][j] == 1 {
							totalBottom++
						}
					}
				}
			}
			n++
		}
		if n == 0 {
			t.AddRow(variant.name, "n/a", "n/a")
			continue
		}
		t.AddRow(variant.name,
			f3(totalLevels/float64(n)),
			f3(float64(totalBottom)/float64(totalNonzero)))
	}
	t.Notes = "2-seed investigation heat maps; more populated levels = better visual discrimination"
	return t
}

// RunA3 measures the field-weight ablation of the search engine's MLM.
func RunA3(env *Env, cfg Config) Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 7)) // E7's workload
	queries := RetrievalWorkload(env.Graph, rng, cfg.Queries*3)
	variants := []struct {
		name    string
		weights [index.NumFields]float64
	}{
		{"tuned (paper defaults)", search.DefaultParams().FieldWeights},
		{"uniform", [index.NumFields]float64{1, 1, 1, 1, 1}},
		{"names only", [index.NumFields]float64{index.FieldNames: 1}},
		{"no names", [index.NumFields]float64{0, 1, 1, 1, 1}},
	}
	t := Table{
		ID:     "A3",
		Title:  "Ablation: MLM field weights",
		Header: []string{"weights", "MRR", "S@1"},
	}
	// One frozen index serves every weight variant: weights are query-time
	// parameters, so the sweep shares the build via WithParams.
	base := search.NewEngine(env.Graph)
	for _, v := range variants {
		p := search.DefaultParams()
		p.FieldWeights = v.weights
		eng := base.WithParams(p)
		var m Metrics
		s1 := 0.0
		for _, q := range queries {
			hits := eng.Search(q.Text, 100, search.ModelMLM)
			ids := make([]rdf.TermID, len(hits))
			for i, h := range hits {
				ids[i] = h.Entity
			}
			m.Accumulate(ids, q.Relevant)
			if len(ids) > 0 && q.Relevant[ids[0]] {
				s1++
			}
		}
		fm := m.Finalize()
		t.AddRow(v.name, f3(fm.MRR), f3(s1/float64(len(queries))))
	}
	t.Notes = "same workload as E7; MLM retrieval throughout"
	return t
}
