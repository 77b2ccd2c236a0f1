package pivote_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"pivote"
)

// TestFullSystemIntegration drives every subsystem through the public
// API in one scenario: generate → snapshot round-trip → keyword search →
// investigation → feature condition → BGP cross-check → pivot → session
// save/restore across graph rebuilds.
func TestFullSystemIntegration(t *testing.T) {
	g := pivote.GenerateDemo(300, 11)

	// Snapshot round trip through a file.
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "graph.snap")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pivote.SaveSnapshot(g, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g2, err := pivote.LoadGraphFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Entities()) != len(g.Entities()) {
		t.Fatalf("snapshot lost entities: %d vs %d", len(g2.Entities()), len(g.Entities()))
	}

	// Work entirely on the reloaded graph from here.
	eng := pivote.New(g2, pivote.Options{TopEntities: 10, TopFeatures: 8})
	res := mustApply(t, eng, pivote.OpSubmit("forrest gump"))
	if res.Entities[0].Name != "Forrest Gump" {
		t.Fatalf("top hit %q", res.Entities[0].Name)
	}
	res = mustApply(t, eng, pivote.OpAddSeed(res.Entities[0].Entity))
	if len(res.Entities) == 0 {
		t.Fatal("investigation empty")
	}

	// Feature condition, cross-checked against the BGP engine: the same
	// semantics expressed two ways must agree on the result set.
	th, err := pivote.ParseFeature(g2, "Tom_Hanks:starring")
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, eng, pivote.OpRemoveSeed(res.Query.Seeds[0]))
	res = mustApply(t, eng, pivote.OpAddFeature(th))
	q, err := pivote.ParseBGP(g2, `SELECT ?film WHERE { ?film starring Tom_Hanks }`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pivote.ExecuteBGP(g2, q)
	if err != nil {
		t.Fatal(err)
	}
	bgpFilms := map[pivote.EntityID]bool{}
	for _, row := range rows {
		bgpFilms[row["film"]] = true
	}
	if len(res.Entities) != len(bgpFilms) {
		t.Fatalf("engine found %d films, BGP %d", len(res.Entities), len(bgpFilms))
	}
	for _, e := range res.Entities {
		if !bgpFilms[e.Entity] {
			t.Fatalf("engine result %s not confirmed by BGP", e.Name)
		}
	}

	// Pivot, then persist the session and restore it on a THIRD graph
	// instance (fresh term IDs) — symbolic references must re-resolve.
	mustApply(t, eng, pivote.OpPivot(g2.EntityByName("Tom_Hanks")))
	saved, err := eng.SaveSession()
	if err != nil {
		t.Fatal(err)
	}
	g3 := pivote.GenerateDemo(300, 11)
	eng3 := pivote.New(g3, pivote.Options{TopEntities: 10, TopFeatures: 8})
	restored, err := eng3.LoadSessionCtx(context.Background(), saved)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Query.Seeds) != 1 {
		t.Fatalf("restored query %+v", restored.Query)
	}
	if g3.Name(restored.Query.Seeds[0]) != "Tom Hanks" {
		t.Fatalf("restored seed = %s", g3.Name(restored.Query.Seeds[0]))
	}
	// The restored timeline supports revisiting the original query.
	if _, err := eng3.Apply(context.Background(), pivote.OpRevisit(1)); err != nil {
		t.Fatal(err)
	}
	got, err := eng3.EvaluateCtx(context.Background(), pivote.FieldsAll)
	if err != nil {
		t.Fatal(err)
	}
	if got.Query.Keywords != "forrest gump" {
		t.Fatalf("revisited keywords %q", got.Query.Keywords)
	}
}

// TestSnapshotAndNTriplesAgree loads the same graph both ways and checks
// the engines rank identically.
func TestSnapshotAndNTriplesAgree(t *testing.T) {
	g := pivote.GenerateDemo(150, 3)
	var nt, snap bytes.Buffer
	if err := pivote.SaveNTriples(g, &nt); err != nil {
		t.Fatal(err)
	}
	if err := pivote.SaveSnapshot(g, &snap); err != nil {
		t.Fatal(err)
	}
	gNT, err := pivote.LoadNTriples(&nt)
	if err != nil {
		t.Fatal(err)
	}
	gSnap, err := pivote.LoadSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"forrest gump", "tom hanks", "drama"} {
		a := mustApply(t, pivote.New(gNT, pivote.Options{}), pivote.OpSubmit(query))
		b := mustApply(t, pivote.New(gSnap, pivote.Options{}), pivote.OpSubmit(query))
		if len(a.Entities) != len(b.Entities) {
			t.Fatalf("%q: %d vs %d hits", query, len(a.Entities), len(b.Entities))
		}
		for i := range a.Entities {
			if a.Entities[i].Name != b.Entities[i].Name {
				t.Fatalf("%q: rank %d differs: %s vs %s", query, i, a.Entities[i].Name, b.Entities[i].Name)
			}
		}
	}
}
