package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pivote/internal/errs"
	"pivote/internal/kg"
	"pivote/internal/kgtest"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
)

// rebuild materializes the expected triple set into a from-scratch
// frozen store over the same dictionary — the reference every compacted
// generation must be byte-identical to.
func rebuild(dict *rdf.Dictionary, triples map[rdf.Triple]bool) *rdf.Store {
	st := rdf.NewStore(dict)
	for t, present := range triples {
		if present {
			st.Add(t.S, t.P, t.O)
		}
	}
	st.Freeze()
	return st
}

// collectStore snapshots a store's full triple sequence in iteration
// order.
func collectStore(st *rdf.Store) []rdf.Triple {
	var out []rdf.Triple
	st.ForEachTriple(func(t rdf.Triple) { out = append(out, t) })
	return out
}

// assertStoreEquivalent checks a compacted generation's store against
// the from-scratch rebuild: full iteration order, size, ID bound and
// per-node adjacency in both directions.
func assertStoreEquivalent(t *testing.T, got, want *rdf.Store) {
	t.Helper()
	if g, w := collectStore(got), collectStore(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("ForEachTriple diverged: compacted %d triples, rebuild %d", len(g), len(w))
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len: compacted %d, rebuild %d", got.Len(), want.Len())
	}
	maxID := want.MaxTermID()
	if got.MaxTermID() != maxID {
		t.Fatalf("MaxTermID: compacted %d, rebuild %d", got.MaxTermID(), maxID)
	}
	for id := rdf.TermID(1); id <= maxID; id++ {
		if g, w := got.Out(id), want.Out(id); !equalEdges(g, w) {
			t.Fatalf("Out(%d): compacted %v, rebuild %v", id, g, w)
		}
		if g, w := got.In(id), want.In(id); !equalEdges(g, w) {
			t.Fatalf("In(%d): compacted %v, rebuild %v", id, g, w)
		}
	}
}

func equalEdges(a, b []rdf.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIDs(a, b []rdf.TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlayEquivalence drives random batches of adds and tombstones —
// including duplicates, re-adds of removed triples and removals of
// absent ones. After every batch the published counts must match the
// expected triple set (Len) and the distinct triples written since the
// last swap (Pending); at every compaction the new generation's store
// must be byte-identical to a from-scratch rebuild of the expected set.
func TestOverlayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict := rdf.NewDictionary()
	const nodes = 40
	ids := make([]rdf.TermID, nodes)
	for i := range ids {
		ids[i] = dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/n%d", i)))
	}
	preds := make([]rdf.TermID, 4)
	for i := range preds {
		preds[i] = dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/p%d", i)))
	}
	randTriple := func() rdf.Triple {
		return rdf.Triple{
			S: ids[rng.Intn(nodes)],
			P: preds[rng.Intn(len(preds))],
			O: ids[rng.Intn(nodes)],
		}
	}

	expected := map[rdf.Triple]bool{}
	base := rdf.NewStore(dict)
	for i := 0; i < 200; i++ {
		tr := randTriple()
		base.Add(tr.S, tr.P, tr.O)
		expected[tr] = true
	}
	base.Freeze()

	s := NewStore(kg.NewGraph(base), Config{})
	written := map[rdf.Triple]bool{} // distinct triples since the last swap
	for batch := 0; batch < 25; batch++ {
		var adds, dels []rdf.Triple
		for i := 0; i < 1+rng.Intn(12); i++ {
			adds = append(adds, randTriple())
		}
		for i := 0; i < rng.Intn(8); i++ {
			dels = append(dels, randTriple())
		}
		res, err := s.Ingest(adds, dels)
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		for _, tr := range adds {
			expected[tr] = true
			written[tr] = true
		}
		for _, tr := range dels {
			delete(expected, tr)
			written[tr] = true
		}
		want := rebuild(dict, expected)
		if v := s.View(); v.Len() != want.Len() || v.Pending() != len(written) || res.Pending != len(written) {
			t.Fatalf("batch %d: view Len %d Pending %d (ack %d), want Len %d Pending %d",
				batch, v.Len(), v.Pending(), res.Pending, want.Len(), len(written))
		}

		// Periodically fold the log into a new generation: its store must
		// match the same rebuild, with nothing left pending.
		if batch%7 == 6 {
			gen, swapped, err := s.CompactNow()
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			if !swapped {
				t.Fatal("compaction with pending writes reported no swap")
			}
			if s.Pending() != 0 {
				t.Fatalf("pending %d after compaction", s.Pending())
			}
			if gen.ID == 0 || s.Generation() != gen {
				t.Fatal("generation did not advance")
			}
			assertStoreEquivalent(t, gen.Store(), want)
			if s.View().Len() != want.Len() {
				t.Fatalf("Len after compaction %d, rebuild %d", s.View().Len(), want.Len())
			}
			written = map[rdf.Triple]bool{}
		}
	}
}

// TestIngestAllocsIndependentOfPending: an ingest does O(batch) work
// under the writer mutex — append to the log, fold into the final map,
// bump two counts — so a 64-triple batch on top of ~2000 pending triples
// allocates no more than the same batch on a near-empty log, up to a
// small constant for map and log growth steps.
func TestIngestAllocsIndependentOfPending(t *testing.T) {
	fx := kgtest.Build()
	dict := fx.Store.Dict()
	pred := dict.Intern(rdf.NewIRI("http://x/allocs/p"))
	minted := 0
	fresh := func() []rdf.Triple {
		batch := make([]rdf.Triple, 64)
		for i := range batch {
			subj := dict.Intern(rdf.NewIRI(fmt.Sprintf("http://x/allocs/s%d", minted)))
			minted++
			batch[i] = rdf.Triple{S: subj, P: pred, O: fx.E("Tom_Hanks")}
		}
		return batch
	}
	const runs = 8
	allocs := func(pending int) float64 {
		s := NewStore(fx.Graph, Config{})
		for s.Pending() < pending {
			if _, err := s.Ingest(fresh(), nil); err != nil {
				t.Fatal(err)
			}
		}
		batches := make([][]rdf.Triple, runs+1) // AllocsPerRun adds a warm-up call
		for i := range batches {
			batches[i] = fresh()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := s.Ingest(batches[next], nil); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	const slack = 8
	empty, loaded := allocs(0), allocs(2000)
	if loaded > empty+slack {
		t.Fatalf("64-triple ingest at ~2000 pending: %.1f allocs, at 0 pending %.1f (slack %d)", loaded, empty, slack)
	}
}

// TestLastWriterWins checks add/remove sequences on the same triple
// inside and across batches.
func TestLastWriterWins(t *testing.T) {
	fx := kgtest.Build()
	s := NewStore(fx.Graph, Config{})
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()

	hanks := fx.E("Tom_Hanks")
	gump := fx.E("Forrest_Gump")
	starring := dict.LookupIRI("http://pivote.dev/ontology/starring")
	if starring == rdf.NoTerm {
		// The fixture may use a different namespace; find it from the graph.
		for _, e := range fx.Store.Out(gump) {
			if !voc.IsMeta(e.P) && e.Node == hanks {
				starring = e.P
			}
		}
	}
	if starring == rdf.NoTerm {
		t.Fatal("could not locate starring predicate")
	}
	tr := rdf.Triple{S: gump, P: starring, O: hanks}
	has := func() bool { return s.Generation().Store().Has(tr.S, tr.P, tr.O) }
	if !has() {
		t.Fatal("fixture triple missing")
	}
	baseLen := s.View().Len()

	// Add and remove the same triple in one batch: the log preserves call
	// order (Ingest appends adds before dels), so the tombstone wins.
	if _, err := s.Ingest([]rdf.Triple{tr}, []rdf.Triple{tr}); err != nil {
		t.Fatal(err)
	}
	if v := s.View(); v.Pending() != 1 || v.Len() != baseLen-1 {
		t.Fatalf("after add+tombstone: pending %d, len %d (base %d)", v.Pending(), v.Len(), baseLen)
	}
	if _, _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if has() {
		t.Fatal("tombstone in the same batch should win over the add")
	}
	// Re-add in a later batch: back alive after the next swap.
	if _, err := s.Ingest([]rdf.Triple{tr}, nil); err != nil {
		t.Fatal(err)
	}
	if v := s.View(); v.Pending() != 1 || v.Len() != baseLen {
		t.Fatalf("after re-add: pending %d, len %d (base %d)", v.Pending(), v.Len(), baseLen)
	}
	if _, _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if !has() {
		t.Fatal("re-add after tombstone should resurrect the triple")
	}
}

// TestIngestValidation: malformed batches are typed invalid and leave
// the store and dictionary untouched.
func TestIngestValidation(t *testing.T) {
	fx := kgtest.Build()
	s := NewStore(fx.Graph, Config{})
	dict := fx.Store.Dict()

	if _, err := s.Ingest([]rdf.Triple{{S: rdf.NoTerm, P: 1, O: 1}}, nil); errs.KindOf(err) != errs.KindInvalid {
		t.Fatalf("NoTerm triple: got %v", err)
	}
	huge := rdf.TermID(dict.Len() + 100)
	if _, err := s.Ingest([]rdf.Triple{{S: huge, P: 1, O: 1}}, nil); errs.KindOf(err) != errs.KindInvalid {
		t.Fatalf("out-of-range triple: got %v", err)
	}
	before := dict.Len()
	_, err := s.IngestNTriples(strings.NewReader("<http://x/a> <http://x/b> garbage .\n"), nil)
	if errs.KindOf(err) != errs.KindInvalid {
		t.Fatalf("malformed N-Triples: got %v", err)
	}
	if dict.Len() != before {
		t.Fatalf("failed decode interned terms: %d -> %d", before, dict.Len())
	}
	// Mixed batch: a valid add side plus a malformed remove side rejects
	// as a unit — not even the add side's new terms may be interned.
	_, err = s.IngestNTriples(
		strings.NewReader("<http://x/brand-new-subject> <http://x/brand-new-pred> <http://x/brand-new-object> .\n"),
		strings.NewReader("not a triple"),
	)
	if errs.KindOf(err) != errs.KindInvalid {
		t.Fatalf("mixed batch: got %v", err)
	}
	if dict.Len() != before {
		t.Fatalf("rejected mixed batch interned terms: %d -> %d", before, dict.Len())
	}
	if s.Pending() != 0 {
		t.Fatalf("failed batches left %d pending triples", s.Pending())
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]rdf.Triple{{S: 1, P: 1, O: 1}}, nil); errs.KindOf(err) != errs.KindInvalid {
		t.Fatalf("ingest after close: got %v", err)
	}
}

// TestGenerationPinning: a view loaded before ingest and compaction
// keeps serving the old state forever.
func TestGenerationPinning(t *testing.T) {
	fx := kgtest.Build()
	s := NewStore(fx.Graph, Config{})
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()

	old := s.View()
	oldLen := old.Len()

	subj := dict.Intern(rdf.NewIRI("http://pivote.dev/resource/Brand_New_Film"))
	tr := rdf.Triple{S: subj, P: voc.Type, O: fx.Store.Objects(fx.E("Forrest_Gump"), voc.Type)[0]}
	if _, err := s.Ingest([]rdf.Triple{tr}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}

	if old.Len() != oldLen || old.Gen.Store().Has(tr.S, tr.P, tr.O) {
		t.Fatal("pinned view observed a later write")
	}
	if !s.Generation().Store().Has(tr.S, tr.P, tr.O) {
		t.Fatal("current generation missing the ingested triple")
	}
	if s.Generation().ID != old.Gen.ID+1 {
		t.Fatalf("generation %d, want %d", s.Generation().ID, old.Gen.ID+1)
	}
}

// TestFeatureCacheCarry: after a swap, cache entries whose dependencies
// the delta did not touch are carried into the new generation, and
// carried values match a from-scratch recompute.
func TestFeatureCacheCarry(t *testing.T) {
	fx := kgtest.Build()
	s := NewStore(fx.Graph, Config{})
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()

	// Warm two extents on generation 0: one anchored far from the write,
	// one at the write target.
	gen0 := s.Generation()
	var starring rdf.TermID
	for _, e := range fx.Store.Out(fx.E("Forrest_Gump")) {
		if !voc.IsMeta(e.P) && e.Node == fx.E("Tom_Hanks") {
			starring = e.P
		}
	}
	if starring == rdf.NoTerm {
		t.Fatal("no starring predicate")
	}
	import0 := gen0.Features.Extent(featureOf(fx.E("Leonardo_DiCaprio"), starring))
	touchedExt := gen0.Features.Extent(featureOf(fx.E("Tom_Hanks"), starring))
	if len(touchedExt) == 0 {
		t.Fatal("Tom_Hanks starring extent empty")
	}

	// Ingest a new film starring Tom Hanks (typed, so it is an entity).
	film := dict.Intern(rdf.NewIRI("http://pivote.dev/resource/New_Hanks_Film"))
	filmType := fx.Store.Objects(fx.E("Forrest_Gump"), voc.Type)[0]
	batch := []rdf.Triple{
		{S: film, P: voc.Type, O: filmType},
		{S: film, P: starring, O: fx.E("Tom_Hanks")},
	}
	if _, err := s.Ingest(batch, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	gen1 := s.Generation()

	carry := gen1.Features.Carry()
	if carry.Gen != 1 {
		t.Fatalf("carry gen %d, want 1", carry.Gen)
	}
	if carry.Carried == 0 {
		t.Fatal("nothing carried: untouched extents should survive the swap")
	}

	// The untouched extent must be the carried slice (same backing array).
	got := gen1.Features.Extent(featureOf(fx.E("Leonardo_DiCaprio"), starring))
	if !equalIDs(got, import0) {
		t.Fatalf("carried extent changed: %v vs %v", got, import0)
	}
	// The touched extent must now include the new film.
	newExt := gen1.Features.Extent(featureOf(fx.E("Tom_Hanks"), starring))
	if len(newExt) != len(touchedExt)+1 || !rdf.ContainsSorted(newExt, film) {
		t.Fatalf("touched extent not recomputed: %v", newExt)
	}
	// And the carried value must equal what a cold cache computes over
	// the new generation's graph.
	coldCache := semfeat.NewFeatureCache(gen1.Graph)
	if coldExt := coldCache.Extent(featureOf(fx.E("Leonardo_DiCaprio"), starring)); !equalIDs(got, coldExt) {
		t.Fatalf("carried extent %v != cold recompute %v", got, coldExt)
	}
}

// featureOf builds the backward feature anchor:pred (entities with a
// pred-edge to anchor).
func featureOf(anchor, pred rdf.TermID) semfeat.Feature {
	return semfeat.Feature{Anchor: anchor, Pred: pred, Dir: semfeat.Backward}
}
