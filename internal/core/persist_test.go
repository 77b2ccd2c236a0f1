package core

import (
	"context"
	"strings"
	"testing"

	"pivote/internal/kgtest"
	"pivote/internal/semfeat"
)

func TestSessionPersistRoundTrip(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpSubmit("forrest gump"))
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	th := semfeat.Feature{Anchor: f.E("Tom_Hanks"), Pred: f.E("p:starring"), Dir: semfeat.Backward}
	mustApply(t, e, OpAddFeature(th))
	want := mustEval(t, e)

	raw, err := e.SaveSession()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "Tom_Hanks:starring") {
		t.Fatal("saved session lacks symbolic feature")
	}
	if !strings.Contains(string(raw), "Forrest_Gump") {
		t.Fatal("saved session lacks entity IRI")
	}

	// Load into a brand-new engine over a freshly built graph (new term
	// IDs): the symbolic references must re-resolve.
	f2 := kgtest.Build()
	e2 := New(f2.Graph, Options{TopEntities: 10, TopFeatures: 8})
	got, err := e2.LoadSessionCtx(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Description != want.Description {
		t.Fatalf("descriptions differ: %q vs %q", got.Description, want.Description)
	}
	if len(got.Entities) != len(want.Entities) {
		t.Fatalf("result sizes differ: %d vs %d", len(got.Entities), len(want.Entities))
	}
	for i := range got.Entities {
		if got.Entities[i].Name != want.Entities[i].Name {
			t.Fatalf("entity %d differs: %s vs %s", i, got.Entities[i].Name, want.Entities[i].Name)
		}
	}
	// Timeline survives, so revisit works after reload.
	if _, err := e2.Apply(context.Background(), OpRevisit(1)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSessionRejectsForeignReferences(t *testing.T) {
	e, f := newEngine(t)
	mustApply(t, e, OpAddSeed(f.E("Forrest_Gump")))
	raw, err := e.SaveSession()
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.ReplaceAll(string(raw), "Forrest_Gump", "Not_A_Real_Entity")
	if _, err := e.LoadSessionCtx(context.Background(), []byte(broken)); err == nil {
		t.Fatal("no error for unknown entity reference")
	}
}
