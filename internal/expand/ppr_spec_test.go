package expand_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"pivote/internal/expand"
	"pivote/internal/kg"
	"pivote/internal/kgtest"
	"pivote/internal/live"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
	"pivote/internal/synth"
)

// specRelated is the map-based semantic neighbour set the PPR walk
// traversed before the graph froze its adjacency: distinct entities on
// non-metadata edges in either direction, ascending.
func specRelated(g *kg.Graph, e rdf.TermID) []rdf.TermID {
	seen := map[rdf.TermID]bool{}
	for _, edges := range [][]rdf.Edge{g.Store().Out(e), g.Store().In(e)} {
		for _, edge := range edges {
			if !g.Voc().IsMeta(edge.P) && g.IsEntity(edge.Node) {
				seen[edge.Node] = true
			}
		}
	}
	out := make([]rdf.TermID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// specPPR is the executable spec of MethodPPR: the map-based power
// iteration, kept verbatim apart from its neighbour source. opts must be
// the expander's effective options (Expander.Options).
func specPPR(g *kg.Graph, opts expand.Options, seeds []rdf.TermID, k int) []expand.Ranked {
	if len(seeds) == 0 {
		return nil
	}
	alpha := opts.PPRAlpha
	restart := map[rdf.TermID]float64{}
	for _, s := range seeds {
		restart[s] += 1.0 / float64(len(seeds))
	}
	p := map[rdf.TermID]float64{}
	for s, v := range restart {
		p[s] = v
	}
	nbrCache := map[rdf.TermID][]rdf.TermID{}
	neighbors := func(e rdf.TermID) []rdf.TermID {
		if ns, ok := nbrCache[e]; ok {
			return ns
		}
		ns := specRelated(g, e)
		nbrCache[e] = ns
		return ns
	}
	// Accumulation follows sorted node order so floating-point sums are
	// identical across runs (map iteration order is randomized in Go).
	sortedNodes := func(m map[rdf.TermID]float64) []rdf.TermID {
		out := make([]rdf.TermID, 0, len(m))
		for e := range m {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	restartNodes := sortedNodes(restart)
	const prune = 1e-9
	for it := 0; it < opts.PPRIterations; it++ {
		next := map[rdf.TermID]float64{}
		for _, s := range restartNodes {
			next[s] += alpha * restart[s]
		}
		for _, e := range sortedNodes(p) {
			mass := p[e]
			ns := neighbors(e)
			if len(ns) == 0 {
				// Dangling mass restarts.
				for _, s := range restartNodes {
					next[s] += (1 - alpha) * mass * restart[s]
				}
				continue
			}
			share := (1 - alpha) * mass / float64(len(ns))
			for _, n := range ns {
				next[n] += share
			}
		}
		for e, v := range next {
			if v < prune {
				delete(next, e)
			}
		}
		p = next
	}
	seedSet := map[rdf.TermID]bool{}
	for _, s := range seeds {
		seedSet[s] = true
	}
	var seedTypes map[rdf.TermID]bool
	if opts.SameTypeOnly {
		seedTypes = map[rdf.TermID]bool{}
		for _, s := range seeds {
			if t := g.PrimaryType(s); t != rdf.NoTerm {
				seedTypes[t] = true
			}
		}
	}
	ranked := make([]expand.Ranked, 0, len(p))
	for e, v := range p {
		if !opts.IncludeSeeds && seedSet[e] {
			continue
		}
		if !g.IsEntity(e) {
			continue
		}
		if seedTypes != nil && !seedTypes[g.PrimaryType(e)] {
			continue
		}
		if opts.Owned != nil && !opts.Owned(e) {
			continue
		}
		ranked = append(ranked, expand.Ranked{Entity: e, Name: g.Name(e), Score: v})
	}
	return naiveTop(ranked, k)
}

// identicalRanking requires exact equality: same entities, names and
// score bits, in the same order.
func identicalRanking(t *testing.T, label string, got, want []expand.Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Entity != w.Entity || g.Name != w.Name || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: rank %d: got %d(%s) %.17g, want %d(%s) %.17g",
				label, i, g.Entity, g.Name, g.Score, w.Entity, w.Name, w.Score)
		}
	}
}

// checkPPR runs the dense walk and the spec on one seed set, for the
// full vector and for a top-k page.
func checkPPR(t *testing.T, label string, x *expand.Expander, g *kg.Graph, seeds []rdf.TermID) {
	t.Helper()
	for _, k := range []int{0, 20} {
		got := x.ExpandWith(expand.MethodPPR, seeds, k)
		want := specPPR(g, x.Options(), seeds, k)
		identicalRanking(t, fmt.Sprintf("%s k=%d", label, k), got, want)
	}
}

// TestPPRMatchesSpec pins the dense walk to the map-based spec, bit for
// bit, across hub seeds, mixed and duplicate seeds, seeds without
// neighbours or beyond the graph's term range, and every option that
// filters the ranking.
func TestPPRMatchesSpec(t *testing.T) {
	res := synth.Generate(synth.Scaled(1000))
	g, m := res.Graph, res.Manifest
	isolated := g.Categories()[0] // only metadata edges: no semantic neighbours
	if len(g.Related(isolated)) != 0 {
		t.Fatalf("category %d has semantic neighbours", isolated)
	}
	beyond := g.Store().MaxTermID() + 7
	seedSets := []struct {
		name  string
		seeds []rdf.TermID
	}{
		{"hub", []rdf.TermID{m.Genres[0]}},
		{"hubs", []rdf.TermID{m.Genres[0], m.Genres[3], m.Awards[1], m.Countries[2]}},
		{"mixed", []rdf.TermID{m.Genres[1], m.Films[4], m.Actors[2], m.Directors[0]}},
		{"duplicates", []rdf.TermID{m.Genres[2], m.Films[7], m.Genres[2], m.Genres[2]}},
		{"isolated", []rdf.TermID{isolated}},
		{"isolated+film", []rdf.TermID{m.Films[0], isolated}},
		{"beyond", []rdf.TermID{beyond}},
		{"beyond+hub", []rdf.TermID{beyond, m.Genres[0]}},
	}
	optVariants := []struct {
		name string
		opts expand.Options
	}{
		{"same-type", expand.Options{SameTypeOnly: true}},
		{"any-type", expand.Options{}},
		{"with-seeds", expand.Options{SameTypeOnly: true, IncludeSeeds: true}},
		{"owned", expand.Options{SameTypeOnly: true, Owned: func(e rdf.TermID) bool { return e%3 != 0 }}},
		{"short-walk", expand.Options{PPRAlpha: 0.3, PPRIterations: 4}},
	}
	en := semfeat.NewEngine(g)
	for _, ov := range optVariants {
		x := expand.New(en, ov.opts)
		for _, ss := range seedSets {
			checkPPR(t, ov.name+"/"+ss.name, x, g, ss.seeds)
		}
	}
}

// TestPPRMatchesSpecFixture runs the spec comparison from every entity
// of the hand-built fixture.
func TestPPRMatchesSpecFixture(t *testing.T) {
	f := kgtest.Build()
	x := expand.New(semfeat.NewEngine(f.Graph), expand.Options{SameTypeOnly: true})
	for _, e := range f.Graph.Entities() {
		checkPPR(t, f.Graph.Name(e), x, f.Graph, []rdf.TermID{e})
	}
}

// TestPPRAcrossGenerations is the live-ingest shape: films minted after
// the base generation froze are wired to a hub genre, so a seed can be a
// TermID the base graph has never seen, and after compaction the walk
// runs over a larger generation through the same pooled scratch. Each
// generation's answer must match the spec over that generation.
func TestPPRAcrossGenerations(t *testing.T) {
	res := synth.Generate(synth.Scaled(300))
	g0, m := res.Graph, res.Manifest
	dict, voc := g0.Dict(), g0.Voc()
	genre := m.Genres[0]
	filmType := g0.PrimaryType(m.Films[0])
	ls := live.NewStore(g0, live.Config{})
	defer ls.Close()

	var batch []rdf.Triple
	var minted []rdf.TermID
	for i := 0; i < 40; i++ {
		f := dict.Intern(rdf.NewIRI(fmt.Sprintf("http://pivote.dev/resource/PPR_Live_Film_%d", i)))
		minted = append(minted, f)
		batch = append(batch,
			rdf.Triple{S: f, P: voc.Type, O: filmType},
			rdf.Triple{S: f, P: m.Preds.Genre, O: genre},
			rdf.Triple{S: f, P: m.Preds.Starring, O: m.Actors[i%len(m.Actors)]},
		)
	}
	if _, err := ls.Ingest(batch, nil); err != nil {
		t.Fatal(err)
	}
	newest := minted[len(minted)-1]
	if newest <= g0.Store().MaxTermID() {
		t.Fatalf("minted film %d inside the base term range (max %d)", newest, g0.Store().MaxTermID())
	}

	// Before compaction: the pinned base generation, seeds it never saw.
	x0 := expand.New(semfeat.NewEngine(g0), expand.Options{SameTypeOnly: true})
	checkPPR(t, "base/genre", x0, g0, []rdf.TermID{genre})
	checkPPR(t, "base/minted", x0, g0, []rdf.TermID{newest, genre})

	gen, swapped, err := ls.CompactNow()
	if err != nil || !swapped {
		t.Fatalf("compact: swapped=%v err=%v", swapped, err)
	}
	g1 := gen.Graph
	if g1.Store().MaxTermID() < newest {
		t.Fatalf("compacted generation max term %d below minted %d", g1.Store().MaxTermID(), newest)
	}
	x1 := expand.New(semfeat.NewEngine(g1), expand.Options{SameTypeOnly: true})
	checkPPR(t, "compacted/genre", x1, g1, []rdf.TermID{genre})
	checkPPR(t, "compacted/minted", x1, g1, []rdf.TermID{newest, genre})
	got := x1.ExpandWith(expand.MethodPPR, []rdf.TermID{genre}, 0)
	if len(got) == 0 {
		t.Fatal("PPR from the genre found nothing on the compacted generation")
	}
	// The old generation is still served by readers that pinned it.
	checkPPR(t, "base-again/genre", x0, g0, []rdf.TermID{genre})
}

// A warm PPR call allocates only its result page: the walk's dense
// state is pooled and reused across calls.
func TestPPRSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	res := synth.Generate(synth.Scaled(300))
	x := expand.New(semfeat.NewEngine(res.Graph), expand.Options{SameTypeOnly: true})
	seeds := res.Manifest.Genres[:2]
	x.ExpandWith(expand.MethodPPR, seeds, 20)
	if n := testing.AllocsPerRun(50, func() { x.ExpandWith(expand.MethodPPR, seeds, 20) }); n > 8 {
		t.Fatalf("PPR allocates %.0f times per warm call, want <= 8", n)
	}
}

// A canceled walk returns the context's error and leaves nothing behind
// that changes a later call's answer.
func TestPPRCanceled(t *testing.T) {
	f := kgtest.Build()
	x := expand.New(semfeat.NewEngine(f.Graph), expand.Options{SameTypeOnly: true})
	seeds := []rdf.TermID{f.E("Forrest_Gump"), f.E("Tom_Hanks")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4; i++ {
		if _, err := x.ExpandWithCtx(ctx, expand.MethodPPR, seeds, 10); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled walk: err = %v, want context.Canceled", err)
		}
	}
	checkPPR(t, "after cancel", x, f.Graph, seeds)
}

// Concurrent walks on a fresh graph race to build its adjacency and share
// the scratch pool; every answer must still match the spec.
func TestPPRConcurrent(t *testing.T) {
	res := synth.Generate(synth.Scaled(300))
	g, m := res.Graph, res.Manifest
	x := expand.New(semfeat.NewEngine(g), expand.Options{SameTypeOnly: true})
	seedSets := [][]rdf.TermID{{m.Genres[0]}, {m.Genres[1], m.Awards[0]}, {m.Films[3]}, {m.Countries[0], m.Actors[1]}}
	want := make([][]expand.Ranked, len(seedSets))
	for i, seeds := range seedSets {
		want[i] = specPPR(g, x.Options(), seeds, 20)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(seedSets); i++ {
				j := (w + i) % len(seedSets)
				got := x.ExpandWith(expand.MethodPPR, seedSets[j], 20)
				if len(got) != len(want[j]) {
					t.Errorf("worker %d seeds %d: %d results, want %d", w, j, len(got), len(want[j]))
					return
				}
				for r := range got {
					if got[r] != want[j][r] {
						t.Errorf("worker %d seeds %d rank %d: got %+v, want %+v", w, j, r, got[r], want[j][r])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
