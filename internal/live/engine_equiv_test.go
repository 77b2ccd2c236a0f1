package live_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/kgtest"
	"pivote/internal/rdf"
)

// TestEngineEquivalenceAcrossSwap is the end-to-end acceptance check of
// the write path: after ingest batches and a compaction swap, a full
// interface evaluation (entities, features, heat map) through the
// live-backed shared core is byte-identical — float scores included — to
// a from-scratch build over the same triple set. The reference store
// shares the live dictionary, so TermIDs line up exactly and DeepEqual
// is a meaningful comparison.
func TestEngineEquivalenceAcrossSwap(t *testing.T) {
	fx := kgtest.Build()
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()
	opts := core.Options{TopEntities: 10, TopFeatures: 8}

	sh := core.NewShared(fx.Graph, opts)
	ls := sh.Live()

	// Ingest two batches: new films starring Tom Hanks plus a tombstone.
	filmType := fx.Store.Objects(fx.E("Forrest_Gump"), voc.Type)[0]
	starring := dict.LookupIRI("http://pivote.dev/ontology/starring")
	if starring == rdf.NoTerm {
		t.Fatal("fixture has no starring predicate")
	}
	var batch []rdf.Triple
	for i := 0; i < 3; i++ {
		f := dict.Intern(rdf.NewIRI(fmt.Sprintf("http://pivote.dev/resource/Live_Film_%d", i)))
		lbl := dict.Intern(rdf.NewLiteral(fmt.Sprintf("Live Film %d", i)))
		batch = append(batch,
			rdf.Triple{S: f, P: voc.Type, O: filmType},
			rdf.Triple{S: f, P: voc.Label, O: lbl},
			rdf.Triple{S: f, P: starring, O: fx.E("Tom_Hanks")},
		)
	}
	if _, err := ls.Ingest(batch, nil); err != nil {
		t.Fatal(err)
	}
	drop := rdf.Triple{S: fx.E("Apollo_13"), P: starring, O: fx.E("Kevin_Bacon")}
	if _, err := ls.Ingest(nil, []rdf.Triple{drop}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ls.CompactNow(); err != nil {
		t.Fatal(err)
	}

	// Reference: a from-scratch store holding exactly the generation's
	// triples (nothing is pending after the compaction).
	ref := rdf.NewStore(dict)
	ls.Generation().Store().ForEachTriple(func(tr rdf.Triple) { ref.Add(tr.S, tr.P, tr.O) })
	ref.Freeze()
	refShared := core.NewShared(kg.NewGraph(ref), opts)

	ops := [][]core.Op{
		{core.OpSubmit("forrest gump")},
		{core.OpSubmit("live film"), core.OpAddSeed(fx.E("Forrest_Gump"))},
		{core.OpPivot(fx.E("Tom_Hanks"))},
	}
	for i, seq := range ops {
		liveEng := core.NewWithShared(sh, opts)
		refEng := core.NewWithShared(refShared, opts)
		gotRes, _, gotErr := liveEng.ApplyOps(context.Background(), seq, core.FieldsAll)
		wantRes, _, wantErr := refEng.ApplyOps(context.Background(), seq, core.FieldsAll)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seq %d: err %v vs %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !reflect.DeepEqual(gotRes.Entities, wantRes.Entities) {
			t.Fatalf("seq %d: entities diverge\nlive: %+v\nref:  %+v", i, gotRes.Entities, wantRes.Entities)
		}
		if !reflect.DeepEqual(gotRes.Features, wantRes.Features) {
			t.Fatalf("seq %d: features diverge\nlive: %+v\nref:  %+v", i, gotRes.Features, wantRes.Features)
		}
		if !reflect.DeepEqual(gotRes.Heat, wantRes.Heat) {
			t.Fatalf("seq %d: heat maps diverge", i)
		}
		if gotRes.Description != wantRes.Description {
			t.Fatalf("seq %d: descriptions diverge %q vs %q", i, gotRes.Description, wantRes.Description)
		}
	}

	// The tombstoned triple is gone from ranking inputs.
	if sh.Graph().Store().Has(drop.S, drop.P, drop.O) {
		t.Fatal("tombstoned triple survived compaction")
	}
}

// TestSessionSurvivesSwap: seeds recorded against generation 0 stay
// valid after a swap (TermIDs are stable across generations), and
// re-evaluation sees the new graph.
func TestSessionSurvivesSwap(t *testing.T) {
	fx := kgtest.Build()
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()
	opts := core.Options{TopEntities: 10, TopFeatures: 8}
	sh := core.NewShared(fx.Graph, opts)
	eng := core.NewWithShared(sh, opts)

	if _, err := eng.Apply(context.Background(), core.OpAddSeed(fx.E("Forrest_Gump"))); err != nil {
		t.Fatal(err)
	}

	starring := dict.LookupIRI("http://pivote.dev/ontology/starring")
	filmType := fx.Store.Objects(fx.E("Forrest_Gump"), voc.Type)[0]
	f := dict.Intern(rdf.NewIRI("http://pivote.dev/resource/Post_Swap_Film"))
	batch := []rdf.Triple{
		{S: f, P: voc.Type, O: filmType},
		{S: f, P: starring, O: fx.E("Tom_Hanks")},
		{S: f, P: dict.Intern(rdf.NewIRI("http://pivote.dev/ontology/director")), O: fx.E("Robert_Zemeckis")},
	}
	if _, err := sh.Live().Ingest(batch, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Live().CompactNow(); err != nil {
		t.Fatal(err)
	}

	res, err := eng.EvaluateCtx(context.Background(), core.FieldsAll)
	if err != nil {
		t.Fatalf("evaluation after swap: %v", err)
	}
	found := false
	for _, r := range res.Entities {
		if r.Entity == f {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested film (shares cast+director with the seed) not recommended after swap: %+v", res.Entities)
	}
	// The old session op can still be re-applied (replay path).
	if _, err := eng.Apply(context.Background(), core.OpAddSeed(f)); err != nil {
		t.Fatalf("seeding an ingested entity: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}
