// Benchmarks that regenerate every table and figure of the reproduction
// (see DESIGN.md's experiment index). Each benchmark prints its artifact
// or measurement table once, so `go test -bench=. -benchmem` output is a
// complete experiment report; quality benches additionally report MAP/MRR
// as custom benchmark metrics.
//
// The figure/table artifacts are cheap and benchmarked at the default
// scale; the measured experiments run at a reduced scale (300 films, 30
// queries) so the whole suite stays in CPU-minutes. cmd/pivote-eval runs
// the full configuration at its defaults (scale 1000, 100 queries; see
// DESIGN.md's experiment index).
package pivote_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"pivote/internal/eval"
)

// benchEnv is the shared environment for the measured experiments.
var (
	benchEnvOnce sync.Once
	benchEnv     *eval.Env
)

func getBenchEnv() *eval.Env {
	benchEnvOnce.Do(func() { benchEnv = eval.NewEnv(300, 42) })
	return benchEnv
}

func benchConfig() eval.Config {
	return eval.Config{Scale: 300, Seed: 42, Queries: 30, SeedsPerQuery: 3, MinConcept: 6, MaxConcept: 120, TopK: 100}
}

// printOnce prints each experiment's rendering a single time per process.
var printedExperiments sync.Map

func printOnce(id, text string) {
	if _, loaded := printedExperiments.LoadOrStore(id, true); !loaded {
		fmt.Println(text)
	}
}

// cell parses a numeric table cell, for ReportMetric.
func cell(t eval.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable1FiveFieldRepresentation(b *testing.B) {
	env := getBenchEnv()
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunT1(env)
	}
	printOnce("T1", a.Text)
}

func BenchmarkFigure1aNeighborhood(b *testing.B) {
	env := getBenchEnv()
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunF1a(env)
	}
	printOnce("F1a", a.Text)
}

func BenchmarkFigure1bTypeView(b *testing.B) {
	env := getBenchEnv()
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunF1b(env)
	}
	printOnce("F1b", a.Text)
}

func BenchmarkFigure2Architecture(b *testing.B) {
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunF2()
	}
	printOnce("F2", a.Text)
}

func BenchmarkFigure3InterfaceState(b *testing.B) {
	env := getBenchEnv()
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunF3(env)
	}
	printOnce("F3", a.Text)
}

func BenchmarkFigure4ExploratoryPath(b *testing.B) {
	env := getBenchEnv()
	b.ReportAllocs()
	var a eval.Artifact
	for i := 0; i < b.N; i++ {
		a = eval.RunF4(env)
	}
	printOnce("F4", a.Text)
}

func BenchmarkE5ExpansionQuality(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE5(env, benchConfig())
	}
	printOnce("E5", t.Render())
	b.ReportMetric(cell(t, 0, 1), "PivotE-MAP")
	b.ReportMetric(cell(t, 1, 1), "CommonNbr-MAP")
}

func BenchmarkE6SeedSweep(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE6(env, benchConfig())
	}
	printOnce("E6", t.Render())
	b.ReportMetric(cell(t, 0, 1), "MAP@m=1")
	b.ReportMetric(cell(t, 2, 1), "MAP@m=3")
}

func BenchmarkE7RetrievalQuality(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE7(env, benchConfig())
	}
	printOnce("E7", t.Render())
	b.ReportMetric(cell(t, 0, 1), "MLM-MRR")
	b.ReportMetric(cell(t, 2, 1), "LMnames-MRR")
}

func BenchmarkE8LatencySweep(b *testing.B) {
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE8(benchConfig(), []int{300, 1000}, 10)
	}
	printOnce("E8", t.Render())
}

func BenchmarkE9SFScalability(b *testing.B) {
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE9(benchConfig(), []int{300, 1000})
	}
	printOnce("E9", t.Render())
}

func BenchmarkE10RetrievalLatency(b *testing.B) {
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunE10(benchConfig(), []int{300, 1000}, 30)
	}
	printOnce("E10", t.Render())
}

func BenchmarkA1ErrorTolerantAblation(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunA1(env, benchConfig())
	}
	printOnce("A1", t.Render())
	b.ReportMetric(cell(t, 0, 3), "tolerant-R50")
	b.ReportMetric(cell(t, 1, 3), "strict-R50")
}

func BenchmarkA2DiscriminabilityAblation(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunA2(env, benchConfig())
	}
	printOnce("A2", t.Render())
	b.ReportMetric(cell(t, 0, 1), "idf-MAP")
	b.ReportMetric(cell(t, 1, 1), "uniform-MAP")
}

func BenchmarkA3FieldWeightAblation(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunA3(env, benchConfig())
	}
	printOnce("A3", t.Render())
	b.ReportMetric(cell(t, 0, 1), "tuned-MRR")
	b.ReportMetric(cell(t, 1, 1), "uniform-MRR")
}

func BenchmarkA4HeatmapQuantizationAblation(b *testing.B) {
	env := getBenchEnv()
	var t eval.Table
	for i := 0; i < b.N; i++ {
		t = eval.RunA4(env, benchConfig())
	}
	printOnce("A4", t.Render())
	b.ReportMetric(cell(t, 0, 1), "quantile-levels")
	b.ReportMetric(cell(t, 1, 1), "linear-levels")
}
