package pivote_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pivote"
)

// demoGraph is shared across tests; generation is deterministic.
var demoGraph = pivote.GenerateDemo(150, 7)

// mustApply applies one op and fails the test if Apply rejects it.
func mustApply(t *testing.T, eng *pivote.Engine, op pivote.Op) *pivote.Result {
	t.Helper()
	res, err := eng.Apply(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateDemoContainsAnchors(t *testing.T) {
	for _, name := range []string{"Forrest_Gump", "Tom_Hanks", "Apollo_13", "Robert_Zemeckis"} {
		if demoGraph.EntityByName(name) == pivote.NoEntity {
			t.Fatalf("anchor %s missing", name)
		}
	}
}

func TestEndToEndScenario(t *testing.T) {
	eng := pivote.New(demoGraph, pivote.Options{TopEntities: 10, TopFeatures: 8})
	res := mustApply(t, eng, pivote.OpSubmit("forrest gump"))
	if len(res.Entities) == 0 {
		t.Fatal("keyword search empty")
	}
	if res.Entities[0].Name != "Forrest Gump" {
		t.Fatalf("top hit %q", res.Entities[0].Name)
	}
	res = mustApply(t, eng, pivote.OpAddSeed(res.Entities[0].Entity))
	if len(res.Entities) == 0 || len(res.Features) == 0 || res.Heat == nil {
		t.Fatal("investigation state incomplete")
	}
	res = mustApply(t, eng, pivote.OpPivot(demoGraph.EntityByName("Tom_Hanks")))
	if len(res.Query.Seeds) != 1 {
		t.Fatal("pivot did not reseed")
	}
	if _, err := eng.Apply(context.Background(), pivote.OpRevisit(1)); err != nil {
		t.Fatal(err)
	}
	if eng.Session().Len() != 4 {
		t.Fatalf("timeline = %d actions, want 4", eng.Session().Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pivote.SaveNTriples(demoGraph, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := pivote.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Entities()) != len(demoGraph.Entities()) {
		t.Fatalf("entities after round trip: %d vs %d",
			len(g2.Entities()), len(demoGraph.Entities()))
	}
	// The reloaded graph answers the same query.
	eng := pivote.New(g2, pivote.Options{})
	res := mustApply(t, eng, pivote.OpSubmit("forrest gump"))
	if len(res.Entities) == 0 || res.Entities[0].Name != "Forrest Gump" {
		t.Fatal("reloaded graph broken")
	}
}

func TestLoadNTriplesErrors(t *testing.T) {
	if _, err := pivote.LoadNTriples(strings.NewReader("garbage line")); err == nil {
		t.Fatal("no error for malformed input")
	}
	if _, err := pivote.LoadNTriplesFile("/nonexistent/path.nt"); err == nil {
		t.Fatal("no error for missing file")
	}
}

func TestParseFeature(t *testing.T) {
	f, err := pivote.ParseFeature(demoGraph, "Tom_Hanks:starring")
	if err != nil {
		t.Fatal(err)
	}
	if f.Dir != pivote.Backward || f.Anchor != demoGraph.EntityByName("Tom_Hanks") {
		t.Fatalf("parsed %+v", f)
	}
	if got := pivote.FeatureLabel(demoGraph, f); got != "Tom_Hanks:starring" {
		t.Fatalf("round trip label %q", got)
	}

	ff, err := pivote.ParseFeature(demoGraph, "Forrest_Gump:~starring")
	if err != nil {
		t.Fatal(err)
	}
	if ff.Dir != pivote.Forward {
		t.Fatal("forward direction not parsed")
	}
	if got := pivote.FeatureLabel(demoGraph, ff); got != "Forrest_Gump:~starring" {
		t.Fatalf("forward label %q", got)
	}
}

func TestParseFeatureErrors(t *testing.T) {
	for _, bad := range []string{"", "noseparator", ":starring", "Tom_Hanks:", "Nobody:starring", "Tom_Hanks:nosuchpred"} {
		if _, err := pivote.ParseFeature(demoGraph, bad); err == nil {
			t.Fatalf("no error for %q", bad)
		}
	}
}

func TestFeatureConditionThroughPublicAPI(t *testing.T) {
	eng := pivote.New(demoGraph, pivote.Options{})
	f, err := pivote.ParseFeature(demoGraph, "Tom_Hanks:starring")
	if err != nil {
		t.Fatal(err)
	}
	res := mustApply(t, eng, pivote.OpAddFeature(f))
	if len(res.Entities) < 5 {
		t.Fatalf("Tom_Hanks:starring returned %d films", len(res.Entities))
	}
	for _, r := range res.Entities {
		if !eng.Features().Holds(r.Entity, f) {
			t.Fatalf("%s does not star Tom Hanks", r.Name)
		}
	}
}

func ExampleNew() {
	g := pivote.GenerateDemo(100, 42)
	eng := pivote.New(g, pivote.Options{TopEntities: 5})
	res, err := eng.Apply(context.Background(), pivote.OpSubmit("forrest gump"))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Entities[0].Name)
	// Output: Forrest Gump
}

func ExampleParseFeature() {
	g := pivote.GenerateDemo(100, 42)
	f, _ := pivote.ParseFeature(g, "Tom_Hanks:starring")
	eng := pivote.New(g, pivote.Options{})
	res, err := eng.Apply(context.Background(), pivote.OpAddFeature(f))
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Entities) >= 5)
	// Output: true
}
