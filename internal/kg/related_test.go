package kg_test

import (
	"slices"
	"sort"
	"testing"

	"pivote/internal/kg"
	"pivote/internal/kgtest"
	"pivote/internal/rdf"
	"pivote/internal/synth"
)

// referenceRelated is the map-based Related the frozen adjacency
// replaced: distinct entities on non-metadata edges in either direction,
// ascending.
func referenceRelated(g *kg.Graph, e rdf.TermID) []rdf.TermID {
	seen := map[rdf.TermID]bool{}
	for _, edge := range g.Store().Out(e) {
		if !g.Voc().IsMeta(edge.P) && g.IsEntity(edge.Node) {
			seen[edge.Node] = true
		}
	}
	for _, edge := range g.Store().In(e) {
		if !g.Voc().IsMeta(edge.P) && g.IsEntity(edge.Node) {
			seen[edge.Node] = true
		}
	}
	out := make([]rdf.TermID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Every run of the frozen adjacency must equal the reference, for every
// term ID of the graph (entities, literals, types, categories) and for
// IDs beyond its term range, which have no neighbours.
func TestRelatedMatchesReference(t *testing.T) {
	graphs := map[string]*kg.Graph{
		"kgtest":     kgtest.Build().Graph,
		"synth-300":  synth.Generate(synth.Scaled(300)).Graph,
		"multi-edge": multiEdgeGraph(),
	}
	for name, g := range graphs {
		max := g.Store().MaxTermID()
		for id := rdf.TermID(0); id <= max+3; id++ {
			got, want := g.Related(id), referenceRelated(g, id)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Related(%d) = %v, want %v", name, id, got, want)
			}
		}
		if !slices.ContainsFunc(g.Entities(), func(e rdf.TermID) bool { return len(g.Related(e)) > 0 }) {
			t.Fatalf("%s: no entity has a semantic neighbour", name)
		}
	}
}

// multiEdgeGraph links the same entities through several predicates and
// in both directions, so neighbour runs must deduplicate; it also has a
// literal with entity neighbours and a metadata-only link.
func multiEdgeGraph() *kg.Graph {
	st := rdf.NewStore(nil)
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://pivote.dev/resource/" + s) }
	pred := func(s string) rdf.Term { return rdf.NewIRI("http://pivote.dev/ontology/" + s) }
	typ, film := rdf.NewIRI(kg.IRIType), iri("Film")
	for _, e := range []string{"A", "B", "C"} {
		st.AddTerms(iri(e), typ, film)
	}
	st.AddTerms(iri("A"), pred("director"), iri("B"))
	st.AddTerms(iri("A"), pred("writer"), iri("B"))
	st.AddTerms(iri("B"), pred("spouse"), iri("A"))
	st.AddTerms(iri("C"), pred("spouse"), iri("A"))
	st.AddTerms(iri("A"), pred("runtime"), rdf.NewLiteral("142 minutes"))
	st.AddTerms(iri("C"), pred("runtime"), rdf.NewLiteral("142 minutes"))
	st.AddTerms(iri("B"), rdf.NewIRI(kg.IRIRedirects), iri("C"))
	st.Freeze()
	return kg.NewGraph(st)
}
