package core_test

import (
	"context"
	"sync"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/obs"
	"pivote/internal/synth"
)

var (
	submitOnce  sync.Once
	submitGraph *kg.Graph
)

func submitSetup() *kg.Graph {
	submitOnce.Do(func() {
		submitGraph = synth.Generate(synth.Scaled(300)).Graph
	})
	return submitGraph
}

// applyOrFail is one interactive turn through Engine.Apply.
func applyOrFail(b *testing.B, eng *core.Engine, op core.Op) *core.Result {
	res, err := eng.Apply(context.Background(), op)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSubmit measures one full interactive turn: keyword retrieval,
// pseudo-seed feature ranking and the heat map, i.e. what one submit op
// costs once the engine is warm.
func BenchmarkSubmit(b *testing.B) {
	g := submitSetup()
	eng := core.New(g, core.Options{})
	applyOrFail(b, eng, core.OpSubmit("forrest gump")) // warm caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := applyOrFail(b, eng, core.OpSubmit("forrest gump"))
		if len(res.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkPivot measures the pivot operation (switch domain, re-expand)
// on a warm engine.
func BenchmarkPivot(b *testing.B) {
	g := submitSetup()
	eng := core.New(g, core.Options{})
	ent := g.EntityByName("Forrest_Gump")
	applyOrFail(b, eng, core.OpPivot(ent))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := applyOrFail(b, eng, core.OpPivot(ent))
		if len(res.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkSubmitUninstrumented is BenchmarkSubmit with the obs layer
// switched off: the delta between the two is the true cost of stage
// timing + op metrics on the hot path, gated at ≤1.10× in
// benchgates.json via BENCH_obs.json.
func BenchmarkSubmitUninstrumented(b *testing.B) {
	g := submitSetup()
	eng := core.New(g, core.Options{})
	applyOrFail(b, eng, core.OpSubmit("forrest gump"))
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := applyOrFail(b, eng, core.OpSubmit("forrest gump"))
		if len(res.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}
