package live_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/kgtest"
	"pivote/internal/rdf"
)

// TestLiveHammer is the -race stress test of the write path: concurrent
// engine readers, view and generation readers and dictionary readers run against
// continuous ingest with both background (threshold-kicked) and forced
// compaction swaps. No read ever blocks on a write; the race detector
// proves the synchronization, and a final equivalence check proves no
// update was lost or duplicated across the swaps.
func TestLiveHammer(t *testing.T) {
	fx := kgtest.Build()
	dict := fx.Store.Dict()
	voc := fx.Graph.Voc()
	opts := core.Options{TopEntities: 8, TopFeatures: 6}

	sh := core.NewLiveShared(fx.Graph, opts) // starts the background compactor
	ls := sh.Live()

	starring := dict.LookupIRI("http://pivote.dev/ontology/starring")
	filmType := fx.Store.Objects(fx.E("Forrest_Gump"), voc.Type)[0]
	hanks := fx.E("Tom_Hanks")
	gump := fx.E("Forrest_Gump")

	const (
		readers   = 4
		batches   = 60
		batchSize = 5
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var evals atomic.Int64

	// Engine readers: full evaluations pinned per call.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := core.NewWithShared(sh, opts)
			if _, err := eng.Apply(context.Background(), core.OpAddSeed(gump)); err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.EvaluateCtx(context.Background(), core.FieldsAll); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				evals.Add(1)
			}
		}(r)
	}

	// View readers: the published counts, plus adjacency walks and
	// membership probes over the pinned generation's store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := ls.View()
			if v.Len() < fx.Store.Len() || v.Pending() < 0 {
				t.Errorf("view counts: len %d < base %d or pending %d", v.Len(), fx.Store.Len(), v.Pending())
				return
			}
			st := v.Gen.Store()
			n := 0
			st.ForEachTriple(func(rdf.Triple) { n++ })
			if n < fx.Store.Len() || n != st.Len() {
				t.Errorf("generation %d walked %d triples, len %d, base %d", v.Gen.ID, n, st.Len(), fx.Store.Len())
				return
			}
			_ = st.Subjects(starring, hanks)
			_ = st.In(hanks)
		}
	}()

	// Dictionary readers: decode every published term while ingest
	// interns new ones (exercises the lock-free chunked spine).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := rdf.TermID(1); int(id) <= dict.Len(); id++ {
				_ = dict.Term(id)
			}
		}
	}()

	// Forced compactions racing the threshold-kicked background ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := ls.CompactNow(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// The single writer: ingest batches of brand-new films.
	expected := make([]rdf.Triple, 0, batches*batchSize*3)
	for b := 0; b < batches; b++ {
		var batch []rdf.Triple
		for i := 0; i < batchSize; i++ {
			f := dict.Intern(rdf.NewIRI(fmt.Sprintf("http://pivote.dev/resource/Hammer_Film_%d_%d", b, i)))
			lbl := dict.Intern(rdf.NewLiteral(fmt.Sprintf("Hammer Film %d %d", b, i)))
			batch = append(batch,
				rdf.Triple{S: f, P: voc.Type, O: filmType},
				rdf.Triple{S: f, P: voc.Label, O: lbl},
				rdf.Triple{S: f, P: starring, O: hanks},
			)
		}
		if _, err := ls.Ingest(batch, nil); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, batch...)
	}
	// Keep the readers running until at least one full evaluation has
	// landed, so the test always exercises reads concurrent with the
	// swaps above.
	for evals.Load() == 0 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	// Fold everything and verify nothing was lost or duplicated.
	if _, _, err := ls.CompactNow(); err != nil {
		t.Fatal(err)
	}
	final := sh.Graph().Store()
	for _, tr := range expected {
		if !final.Has(tr.S, tr.P, tr.O) {
			t.Fatalf("triple %v lost across swaps", tr)
		}
	}
	ref := rdf.NewStore(dict)
	fx.Store.ForEachTriple(func(tr rdf.Triple) { ref.Add(tr.S, tr.P, tr.O) })
	for _, tr := range expected {
		ref.Add(tr.S, tr.P, tr.O)
	}
	ref.Freeze()
	if final.Len() != ref.Len() {
		t.Fatalf("final store %d triples, want %d", final.Len(), ref.Len())
	}
	refG := kg.NewGraph(ref)
	if got, want := len(sh.Graph().Entities()), len(refG.Entities()); got != want {
		t.Fatalf("entity universe %d, want %d", got, want)
	}
	if evals.Load() == 0 {
		t.Fatal("no evaluations completed under ingest")
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}
