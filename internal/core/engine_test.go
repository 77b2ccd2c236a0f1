package core

import (
	"context"
	"strings"
	"testing"

	"pivote/internal/kgtest"
	"pivote/internal/semfeat"
)

func newEngine(t testing.TB) (*Engine, *kgtest.Fixture) {
	t.Helper()
	f := kgtest.Build()
	return New(f.Graph, Options{TopEntities: 10, TopFeatures: 8}), f
}

// mustApply applies one op and fails the test if Apply rejects it.
func mustApply(t testing.TB, e *Engine, op Op) *Result {
	t.Helper()
	res, err := e.Apply(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustEval evaluates the current query with every area assembled.
func mustEval(t testing.TB, e *Engine) *Result {
	t.Helper()
	res, err := e.EvaluateCtx(context.Background(), FieldsAll)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSubmitKeywordQuery(t *testing.T) {
	e, f := newEngine(t)
	res := mustApply(t, e, OpSubmit("forrest gump"))
	if len(res.Entities) == 0 {
		t.Fatal("no entities for keyword query")
	}
	if res.Entities[0].Entity != f.E("Forrest_Gump") {
		t.Fatalf("top entity = %s, want Forrest Gump", res.Entities[0].Name)
	}
	if len(res.Features) == 0 {
		t.Fatal("no recommended features after keyword query")
	}
	if res.Heat == nil || len(res.Heat.Values) == 0 {
		t.Fatal("no heat map")
	}
	if len(res.Timeline) != 1 {
		t.Fatalf("timeline length %d, want 1", len(res.Timeline))
	}
}

func TestInvestigationBySeed(t *testing.T) {
	// "Find films similar to Forrest Gump" by specifying the entity.
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	res := mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	if len(res.Entities) == 0 {
		t.Fatal("no similar entities")
	}
	for _, r := range res.Entities {
		if r.Entity == f.E("Forrest_Gump") {
			t.Fatal("seed leaked into results")
		}
		if got := e.Graph().PrimaryType(r.Entity); got != f.E("Film") {
			t.Fatalf("non-film %s in investigation results", r.Name)
		}
	}
}

func TestFeatureConditionQuery(t *testing.T) {
	// "Find films starring Tom Hanks" by pinning the semantic feature.
	e, f := newEngine(t)
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	res := mustApply(t, e, OpAddFeature(th))
	if len(res.Entities) != 6 {
		t.Fatalf("Tom_Hanks:starring returned %d films, want 6", len(res.Entities))
	}
	for _, r := range res.Entities {
		if !e.Features().Holds(r.Entity, th) {
			t.Fatalf("%s does not hold the pinned condition", r.Name)
		}
	}
	if res.Features[0].Feature != th {
		t.Fatal("pinned feature not first on the y-axis")
	}
}

func TestConjunctiveFeatureConditions(t *testing.T) {
	e, f := newEngine(t)
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	rz := semfeat.Feature{Anchor: f.E("Robert_Zemeckis"), Pred: f.E("p:director"), Dir: semfeat.Backward}
	mustApply(t, e, OpAddFeature(th))
	res := mustApply(t, e, OpAddFeature(rz))
	// Films starring Hanks AND directed by Zemeckis: Forrest Gump and
	// Cast Away.
	if len(res.Entities) != 2 {
		t.Fatalf("conjunction returned %d films, want 2: %+v", len(res.Entities), res.Entities)
	}
	names := map[string]bool{}
	for _, r := range res.Entities {
		names[r.Name] = true
	}
	if !names["Forrest Gump"] || !names["Cast Away"] {
		t.Fatalf("conjunction = %v", names)
	}
}

func TestSeedPlusConditionExcludesSeed(t *testing.T) {
	e, f := newEngine(t)
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	mustApply(t, e, OpAddFeature(th))
	res := mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	for _, r := range res.Entities {
		if r.Entity == f.E("Forrest_Gump") {
			t.Fatal("seed leaked into condition results")
		}
	}
	if len(res.Entities) != 5 {
		t.Fatalf("got %d films, want 5 (6 Hanks films minus the seed)", len(res.Entities))
	}
}

func TestRemoveSeedAndFeature(t *testing.T) {
	e, f := newEngine(t)
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	mustApply(t, e, OpAddFeature(th))
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	mustApply(t, e, OpRemoveFeature(th))
	res := mustApply(t, e, OpRemoveSeed(f.E("Forrest_Gump")))
	if !res.Query.IsEmpty() {
		t.Fatalf("query not empty after removals: %+v", res.Query)
	}
	if len(res.Entities) != 0 {
		t.Fatal("empty query produced results")
	}
}

func TestLookupReturnsProfileWithoutChangingResults(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	before := mustEval(t, e)
	p, err := e.LookupCtx(context.Background(), f.E("Forrest_Gump"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Forrest Gump" {
		t.Fatalf("profile name = %q", p.Name)
	}
	after := mustEval(t, e)
	if len(before.Entities) != len(after.Entities) {
		t.Fatal("lookup changed the result set")
	}
	// But it is recorded on the timeline.
	found := false
	for _, a := range e.Session().Timeline() {
		if strings.Contains(a.Label, "lookup") {
			found = true
		}
	}
	if !found {
		t.Fatal("lookup not recorded in timeline")
	}
}

func TestPivotSwitchesDomain(t *testing.T) {
	// §3.2: from films, pivot into the Actor domain via Tom Hanks.
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	res := mustApply(t, e, OpPivot(f.E("Tom_Hanks")))
	if len(res.Query.Seeds) != 1 || res.Query.Seeds[0] != f.E("Tom_Hanks") {
		t.Fatalf("pivot query = %+v", res.Query)
	}
	for _, r := range res.Entities {
		if got := e.Graph().PrimaryType(r.Entity); got != f.E("Actor") {
			t.Fatalf("pivot produced non-actor %s (%s)", r.Name, e.Graph().Name(got))
		}
	}
	if len(res.Entities) == 0 {
		t.Fatal("pivot produced no actors")
	}
}

func TestPivotToSparseDomainFallsBackToRandomWalk(t *testing.T) {
	// Directors share no direct neighbours (each film has one director),
	// so the SF extents yield no same-type candidates; the engine must
	// fall back to the random walk and still recommend directors
	// connected through film→actor→film chains.
	e, f := newEngine(t)
	res := mustApply(t, e, OpPivot(f.E("Robert_Zemeckis")))
	if len(res.Entities) == 0 {
		t.Fatal("pivot to Director domain returned nothing")
	}
	for _, r := range res.Entities {
		if got := e.Graph().PrimaryType(r.Entity); got != f.E("Director") {
			t.Fatalf("fallback produced non-director %s", r.Name)
		}
		if r.Entity == f.E("Robert_Zemeckis") {
			t.Fatal("seed leaked into fallback results")
		}
	}
	// Ron Howard directs Apollo 13, which shares Hanks/Sinise with
	// Zemeckis films — he must be reachable.
	found := false
	for _, r := range res.Entities {
		if r.Entity == f.E("Ron_Howard") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Ron Howard missing from fallback results: %+v", res.Entities)
	}
}

func TestPivotOnFeature(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	// Double-clicking a feature (Fig. 3-e) pivots through its anchor.
	res := mustApply(t, e, OpPivot(th.Anchor))
	if len(res.Query.Seeds) != 1 || res.Query.Seeds[0] != f.E("Tom_Hanks") {
		t.Fatal("pivot on a feature did not seed the anchor")
	}
}

func TestRevisitRestoresResults(t *testing.T) {
	e, f := newEngine(t)
	first := mustApply(t, e, OpSubmit("forrest gump"))
	mustApply(t, e, OpPivot(f.E("Tom_Hanks")))
	res, err := e.Apply(context.Background(), OpRevisit(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entities) != len(first.Entities) {
		t.Fatalf("revisit returned %d entities, original %d", len(res.Entities), len(first.Entities))
	}
	if res.Entities[0].Entity != first.Entities[0].Entity {
		t.Fatal("revisit changed the top result")
	}
	if _, err := e.Apply(context.Background(), OpRevisit(99)); err == nil {
		t.Fatal("revisit of absent step did not error")
	}
}

func TestDescribeQuery(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("gump"))
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	res := mustApply(t, e, OpAddFeature(th))
	for _, want := range []string{`keywords="gump"`, "entities=[Forrest Gump]", "features=[Tom_Hanks:starring]"} {
		if !strings.Contains(res.Description, want) {
			t.Fatalf("description %q missing %q", res.Description, want)
		}
	}
	if got := e.DescribeQuery(e.Session().Current()); got != res.Description {
		t.Fatal("DescribeQuery mismatch")
	}
}

func TestRenderASCIIContainsAllAreas(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	res := mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	out := res.RenderASCII()
	for _, want := range []string{
		"query (a,b)", "entities (c)", "semantic features (e)",
		"explanation heat map (f)", "timeline (g)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestRenderASCIIEmptyQuery(t *testing.T) {
	e, _ := newEngine(t)
	res := mustEval(t, e)
	out := res.RenderASCII()
	if !strings.Contains(out, "(empty query)") || !strings.Contains(out, "(none)") {
		t.Fatalf("empty render unexpected:\n%s", out)
	}
}

func TestArchitectureDOT(t *testing.T) {
	dot := ArchitectureDOT()
	for _, want := range []string{"digraph", "Search Engine", "Recommendation Engine", "Knowledge Graph Store"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("architecture DOT missing %q", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TopEntities != 20 || o.TopFeatures != 15 || o.PseudoSeeds != 3 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.Expand == nil || !o.Expand.SameTypeOnly {
		t.Fatal("expand defaults wrong")
	}
}

func TestScenarioFromThePaper(t *testing.T) {
	// The full §3 walk-through: query → lookup → investigate → pivot →
	// revisit, asserting the timeline shape of Fig. 4.
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	if _, err := e.LookupCtx(context.Background(), f.E("Forrest_Gump")); err != nil {
		t.Fatal(err)
	}
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	mustApply(t, e, OpPivot(f.E("Tom_Hanks")))
	if _, err := e.Apply(context.Background(), OpRevisit(1)); err != nil {
		t.Fatal(err)
	}
	tl := e.Session().Timeline()
	if len(tl) != 5 {
		t.Fatalf("timeline length %d, want 5", len(tl))
	}
	path := e.Session().PathASCII()
	for _, want := range []string{"submit", "lookup", "add-entity", "pivot", "revisit"} {
		if !strings.Contains(path, want) {
			t.Fatalf("path missing %q:\n%s", want, path)
		}
	}
}

func BenchmarkSubmitAndInvestigate(b *testing.B) {
	f := kgtest.Build()
	e := New(f.Graph, Options{})
	gump := f.E("Forrest_Gump")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustApply(b, e, OpSubmit("forrest gump"))
		if res := mustApply(b, e, OpAddSeed(gump)); len(res.Entities) == 0 {
			b.Fatal("no results")
		}
	}
}
