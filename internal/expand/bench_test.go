package expand_test

import (
	"sync"
	"testing"

	"pivote/internal/expand"
	"pivote/internal/obs"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
	"pivote/internal/synth"
)

// benchEnv is built once: the graph is immutable and shared, exactly as a
// serving process would hold it.
var (
	benchOnce  sync.Once
	benchRes   *synth.Result
	benchSeeds []rdf.TermID
)

func benchSetup() (*synth.Result, []rdf.TermID) {
	benchOnce.Do(func() {
		benchRes = synth.Generate(synth.Scaled(300))
		benchSeeds = benchRes.Manifest.Films[:3]
	})
	return benchRes, benchSeeds
}

// BenchmarkExpand measures the paper's hot path: rank Φ(Q), union the
// extents, score every candidate with r(e,Q) = Σ p(π|e)·r(π,Q), select
// the top 20. The feature cache is warmed by one run before the loop, as
// in steady-state serving.
func BenchmarkExpand(b *testing.B) {
	res, seeds := benchSetup()
	en := semfeat.NewEngine(res.Graph)
	x := expand.New(en, expand.Options{SameTypeOnly: true})
	x.Expand(seeds, 20) // warm the extent/category caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, _ := x.Expand(seeds, 20)
		if len(ranked) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// BenchmarkExpandStrict is the same pass with the category back-off
// disabled: pure extent scatter, no per-candidate probing.
func BenchmarkExpandStrict(b *testing.B) {
	res, seeds := benchSetup()
	en := semfeat.NewEngineWithOptions(res.Graph, semfeat.Options{Strict: true})
	x := expand.New(en, expand.Options{SameTypeOnly: true})
	x.Expand(seeds, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, _ := x.Expand(seeds, 20)
		if len(ranked) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// BenchmarkExpandUninstrumented is BenchmarkExpand with the obs layer
// switched off; the pair is published as BENCH_obs.json and gated at
// ≤1.10× in benchgates.json.
func BenchmarkExpandUninstrumented(b *testing.B) {
	res, seeds := benchSetup()
	en := semfeat.NewEngine(res.Graph)
	x := expand.New(en, expand.Options{SameTypeOnly: true})
	x.Expand(seeds, 20)
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, _ := x.Expand(seeds, 20)
		if len(ranked) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// pprEnv is the PPR fallback's benchmark graph: scale 10 000, where a
// hub-seed pivot walks ~18k entities. Built once per process.
var (
	pprOnce  sync.Once
	pprRes   *synth.Result
	pprSeeds []rdf.TermID
)

func pprSetup() (*synth.Result, []rdf.TermID) {
	pprOnce.Do(func() {
		pprRes = synth.Generate(synth.Scaled(10000))
		pprSeeds = pprRes.Manifest.Genres[:2]
	})
	return pprRes, pprSeeds
}

// BenchmarkExpandPPR measures the PPR fallback a hub-seed pivot drops
// into: the dense walk over the frozen adjacency from two genre seeds,
// top 20. The adjacency is built by one warm-up call, as in serving.
func BenchmarkExpandPPR(b *testing.B) {
	res, seeds := pprSetup()
	x := expand.New(semfeat.NewEngine(res.Graph), expand.Options{SameTypeOnly: true})
	x.ExpandWith(expand.MethodPPR, seeds, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(x.ExpandWith(expand.MethodPPR, seeds, 20)) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// BenchmarkExpandPPRSpec is the same call through the map-based spec
// (ppr_spec_test.go); benchgates.json holds the dense walk to at most a
// tenth of its time and a hundredth of its allocations, in-run.
func BenchmarkExpandPPRSpec(b *testing.B) {
	res, seeds := pprSetup()
	x := expand.New(semfeat.NewEngine(res.Graph), expand.Options{SameTypeOnly: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(specPPR(res.Graph, x.Options(), seeds, 20)) == 0 {
			b.Fatal("empty expansion")
		}
	}
}
