package live_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/live"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/synth"
)

// benchGraph builds the synthetic KG used by every live bench.
func benchGraph(scale int) *kg.Graph {
	cfg := synth.Scaled(scale)
	cfg.Seed = 42
	return synth.Generate(cfg).Graph
}

// benchBatch mints one batch of fresh film entities (type + label + a
// starring edge into the existing graph) against the shared dictionary.
func benchBatch(g *kg.Graph, tag string, n int) []rdf.Triple {
	dict := g.Dict()
	voc := g.Voc()
	var filmType, starring, anyActor rdf.TermID
	for _, e := range g.Entities() {
		if t := g.PrimaryType(e); t != rdf.NoTerm {
			if filmType == rdf.NoTerm {
				filmType = t
			}
			for _, edge := range g.Store().Out(e) {
				if !voc.IsMeta(edge.P) && g.IsEntity(edge.Node) {
					starring, anyActor = edge.P, edge.Node
					break
				}
			}
		}
		if filmType != rdf.NoTerm && starring != rdf.NoTerm {
			break
		}
	}
	batch := make([]rdf.Triple, 0, 3*n)
	for i := 0; i < n; i++ {
		f := dict.Intern(rdf.NewIRI(fmt.Sprintf("http://pivote.dev/resource/bench_%s_%d", tag, i)))
		lbl := dict.Intern(rdf.NewLiteral(fmt.Sprintf("bench %s film %d", tag, i)))
		batch = append(batch,
			rdf.Triple{S: f, P: voc.Type, O: filmType},
			rdf.Triple{S: f, P: voc.Label, O: lbl},
			rdf.Triple{S: f, P: starring, O: anyActor},
		)
	}
	return batch
}

// BenchmarkIngest measures the write path alone: one 64-triple batch
// appended to the log and folded into the pending counts, plus the view
// publication, on top of an empty log and of ~2000 pending triples.
// Before every timed batch the log is dropped (AdoptGeneration of the
// current generation) and refilled off the clock, so pending starts each
// timed batch at exactly 0 or 2000. The in-run gate in benchgates.json
// holds pending=2000 within 1.3x of pending=0: ingest cost must not grow
// with the log.
func BenchmarkIngest(b *testing.B) {
	g := benchGraph(200)
	batch := benchBatch(g, "i", 22)[:64]
	filler := benchBatch(g, "fill", 667)[:2000]
	for _, pending := range []int{0, 2000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := live.NewStore(g, live.Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := s.AdoptGeneration(s.Generation(), true); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Ingest(filler[:pending], nil); err != nil {
					b.Fatal(err)
				}
				if s.Pending() != pending {
					b.Fatalf("pending %d before the timed batch, want %d", s.Pending(), pending)
				}
				b.StartTimer()
				if _, err := s.Ingest(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompactionSwap measures one full generation rebuild + RCU
// swap: materialize the base plus the pending writes, Freeze, rebuild
// the KG tables and the search index, carry the feature cache, publish.
// This is the off-thread cost a swap imposes — readers never see it.
func BenchmarkCompactionSwap(b *testing.B) {
	g := benchGraph(200)
	s := live.NewStore(g, live.Config{})
	batch := benchBatch(g, "c", 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Re-ingesting the same batch keeps the graph size constant
		// across iterations (duplicates deduplicate at Freeze).
		if _, err := s.Ingest(batch, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := s.CompactNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrozen is the baseline read: a full entity-ranking
// evaluation against a static shared core (no write path at all).
func BenchmarkReadFrozen(b *testing.B) {
	g := benchGraph(200)
	opts := core.Options{}
	sh := core.NewShared(g, opts)
	benchEvaluate(b, sh, g)
}

// BenchmarkReadUnderIngest is the same evaluation while a paced writer
// ingests batches (a batch every few milliseconds, a compaction swap
// every half second — thousands of triples per second sustained). The
// acceptance bar: steady-state reads regress < 10% vs
// BenchmarkReadFrozen, because reads pin a generation and never touch a
// lock the writer holds. (The writer is paced, not flat-out: an
// unthrottled writer measures CPU sharing — on a single-core runner it
// would steal half the wall clock by scheduling alone — whereas this
// benchmark exists to show reads don't *block* on writes.)
func BenchmarkReadUnderIngest(b *testing.B) {
	g := benchGraph(200)
	opts := core.Options{}
	sh := core.NewLiveShared(g, opts)
	defer sh.Close()
	ls := sh.Live()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			// Rotate the target entity so successive swaps don't keep
			// invalidating one cache line's worth of features.
			batch := benchBatch(g, fmt.Sprintf("u%d", i%97), 7)
			if _, err := ls.Ingest(batch, nil); err != nil {
				return
			}
			if i%100 == 99 {
				if _, _, err := ls.CompactNow(); err != nil {
					return
				}
			}
		}
	}()
	benchEvaluate(b, sh, g)
	close(stop)
	wg.Wait()
}

// coldStartFixture persists the scale-2000 bench graph both ways: the
// v1 triple snapshot (everything derived must be rebuilt on load) and
// the v2 sectioned generation snapshot (everything derived is mapped).
// Both files land in a bench-scoped temp dir; the OS page cache is warm
// for both, so the pair isolates CPU cost, not disk.
func coldStartFixture(b *testing.B) (v1Path, v2Path string) {
	b.Helper()
	dir := b.TempDir()
	g := benchGraph(2000)
	sh := core.NewShared(g, core.Options{})

	v1Path = dir + "/graph.snap"
	f, err := os.Create(v1Path)
	if err != nil {
		b.Fatal(err)
	}
	if err := rdf.WriteSnapshot(g.Store(), f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	v2Path = live.SnapshotPath(dir, 0)
	if err := live.WriteGenerationFile(sh.Generation(), v2Path); err != nil {
		b.Fatal(err)
	}
	return v1Path, v2Path
}

// coldStartQuery is the first query a just-booted server answers — the
// finish line of both cold-start benches, so lazily-deferred work (term
// lookup, posting traversal) counts toward the measured path.
func coldStartQuery(b *testing.B, sh *core.Shared) {
	b.Helper()
	hits := sh.Searcher().Search("forrest gump", 10, search.ModelMLM)
	if len(hits) == 0 {
		b.Fatal("cold-start query returned no hits")
	}
}

// BenchmarkColdStartRebuild is time-to-first-query from the v1 triple
// snapshot: parse the triples, rebuild the KG tables, the five-field
// search index and the feature catalog, then answer one query. This is
// what every restart cost before the sectioned format.
func BenchmarkColdStartRebuild(b *testing.B) {
	v1Path, _ := coldStartFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(v1Path)
		if err != nil {
			b.Fatal(err)
		}
		st, err := rdf.ReadSnapshot(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		sh := core.NewShared(kg.NewGraph(st), core.Options{})
		coldStartQuery(b, sh)
	}
}

// BenchmarkColdStartMmap is time-to-first-query from the v2 sectioned
// generation snapshot: mmap, checksum + structural validation, answer
// one query. No rebuild of any derived structure — the headline number
// of the persistence layer.
func BenchmarkColdStartMmap(b *testing.B) {
	_, v2Path := coldStartFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := live.OpenGeneration(v2Path)
		if err != nil {
			b.Fatal(err)
		}
		sh := core.NewSharedFromGeneration(gen, core.Options{})
		coldStartQuery(b, sh)
		b.StopTimer()
		if err := gen.Mapping().Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func benchEvaluate(b *testing.B, sh *core.Shared, g *kg.Graph) {
	eng := core.NewWithShared(sh, core.Options{})
	seed := g.Entities()[len(g.Entities())/2]
	if _, err := eng.Apply(context.Background(), core.OpAddSeed(seed)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvaluateCtx(ctx, core.FieldEntities|core.FieldFeatures); err != nil {
			b.Fatal(err)
		}
	}
}
