package kg

import (
	"slices"
	"sort"
	"sync"

	"pivote/internal/rdf"
)

// Graph is the entity-centric view over a frozen store. Construction
// scans the store once to identify the entity, type and category
// universes; all per-entity accessors afterwards are index lookups.
type Graph struct {
	store *rdf.Store
	voc   Vocab

	entities   []rdf.TermID // sorted: IRIs that have at least one rdf:type
	types      []rdf.TermID // sorted: objects of rdf:type
	categories []rdf.TermID // sorted: objects of dct:subject

	// Dense per-TermID tables, sized MaxTermID+1. isEntity makes the
	// membership probe in the scoring scatter loops a single load;
	// primaryType precomputes the most specific type of every entity
	// (NoTerm for non-entities), so the same-type candidate filter costs
	// one load per candidate instead of a types scan with per-type
	// member counts; catSize holds ‖E(c)‖ per category (0 for
	// non-categories), the denominator of every back-off probability and
	// the sort key of the most-specific-first category order, so neither
	// the feature-catalog build nor the lazy cache recounts members.
	isEntity    []bool
	primaryType []rdf.TermID
	catSize     []int32

	// Frozen semantic entity adjacency (see Related), built on first
	// use: relOff has length MaxTermID+2 and node id's distinct
	// neighbours, ascending, are relAdj[relOff[id]:relOff[id+1]].
	relOnce sync.Once
	relOff  []uint32
	relAdj  []rdf.TermID
}

// NewGraph builds the graph view. The store must already be frozen.
func NewGraph(st *rdf.Store) *Graph {
	if !st.Frozen() {
		panic("kg: store must be frozen before building a Graph")
	}
	g := &Graph{store: st, voc: InternVocab(st.Dict())}
	entSet := map[rdf.TermID]bool{}
	typeSet := map[rdf.TermID]bool{}
	catSet := map[rdf.TermID]bool{}
	for _, s := range st.NodesWithOut() {
		for _, e := range st.Out(s) {
			switch e.P {
			case g.voc.Type:
				entSet[s] = true
				typeSet[e.Node] = true
			case g.voc.Subject:
				catSet[e.Node] = true
			}
		}
	}
	g.entities = sortedIDs(entSet)
	g.types = sortedIDs(typeSet)
	g.categories = sortedIDs(catSet)

	n := int(st.MaxTermID()) + 1
	g.isEntity = make([]bool, n)
	for _, e := range g.entities {
		g.isEntity[e] = true
	}
	// Type sizes are shared across entities; count each type once.
	typeSize := make(map[rdf.TermID]int, len(g.types))
	for _, t := range g.types {
		typeSize[t] = st.CountSubjects(g.voc.Type, t)
	}
	g.catSize = make([]int32, n)
	for _, c := range g.categories {
		g.catSize[c] = int32(st.CountSubjects(g.voc.Subject, c))
	}
	g.primaryType = make([]rdf.TermID, n)
	for _, e := range g.entities {
		best := rdf.NoTerm
		bestN := int(^uint(0) >> 1)
		for _, t := range st.Objects(e, g.voc.Type) {
			if n := typeSize[t]; n < bestN || (n == bestN && t < best) {
				best, bestN = t, n
			}
		}
		g.primaryType[e] = best
	}
	return g
}

func sortedIDs(set map[rdf.TermID]bool) []rdf.TermID {
	out := make([]rdf.TermID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Store exposes the underlying triple store.
func (g *Graph) Store() *rdf.Store { return g.store }

// Dict exposes the term dictionary.
func (g *Graph) Dict() *rdf.Dictionary { return g.store.Dict() }

// Voc exposes the metadata vocabulary.
func (g *Graph) Voc() Vocab { return g.voc }

// Entities returns the sorted entity universe (shared slice; do not
// modify).
func (g *Graph) Entities() []rdf.TermID { return g.entities }

// Types returns the sorted set of entity types.
func (g *Graph) Types() []rdf.TermID { return g.types }

// Categories returns the sorted set of categories.
func (g *Graph) Categories() []rdf.TermID { return g.categories }

// IsEntity reports whether id is in the entity universe.
func (g *Graph) IsEntity(id rdf.TermID) bool {
	return int(id) < len(g.isEntity) && g.isEntity[id]
}

// EntityByName resolves an entity by the local name of its IRI under the
// DBpedia-style resource namespace used by the synthetic generator, or by
// exact IRI. It returns NoTerm if the entity is unknown.
func (g *Graph) EntityByName(name string) rdf.TermID {
	if id := g.Dict().LookupIRI(name); id != rdf.NoTerm && g.IsEntity(id) {
		return id
	}
	if id := g.Dict().LookupIRI(ResourceIRI(name)); id != rdf.NoTerm && g.IsEntity(id) {
		return id
	}
	return rdf.NoTerm
}

// ResourceIRI maps a local entity name to the resource namespace shared
// with the synthetic generator.
func ResourceIRI(name string) string {
	return "http://pivote.dev/resource/" + name
}

// Name returns the display identifier of any term: its first rdfs:label
// if present, otherwise the IRI local name or literal form.
func (g *Graph) Name(id rdf.TermID) string {
	for _, e := range g.store.Out(id) {
		if e.P == g.voc.Label {
			if t := g.Dict().Term(e.Node); t.IsLiteral() {
				return t.Value
			}
		}
	}
	return g.Dict().Term(id).LocalName()
}

// Labels returns all rdfs:label literal values of id.
func (g *Graph) Labels(id rdf.TermID) []string {
	var out []string
	for _, e := range g.store.Out(id) {
		if e.P == g.voc.Label {
			if t := g.Dict().Term(e.Node); t.IsLiteral() {
				out = append(out, t.Value)
			}
		}
	}
	return out
}

// TypesOf returns the sorted type IDs of the entity.
func (g *Graph) TypesOf(e rdf.TermID) []rdf.TermID {
	return g.store.Objects(e, g.voc.Type)
}

// PrimaryType returns the most specific type of e: the one with the
// fewest members (ties broken by ID for determinism), or NoTerm. The
// answer is precomputed at graph construction; this is a single load.
func (g *Graph) PrimaryType(e rdf.TermID) rdf.TermID {
	if int(e) >= len(g.primaryType) {
		return rdf.NoTerm
	}
	return g.primaryType[e]
}

// CategoriesOf returns the sorted category IDs of the entity.
func (g *Graph) CategoriesOf(e rdf.TermID) []rdf.TermID {
	return g.store.Objects(e, g.voc.Subject)
}

// TypeMembers returns the sorted entities of type t.
func (g *Graph) TypeMembers(t rdf.TermID) []rdf.TermID {
	return g.store.Subjects(g.voc.Type, t)
}

// CategoryMembers returns the sorted entities in category c.
func (g *Graph) CategoryMembers(c rdf.TermID) []rdf.TermID {
	return g.store.Subjects(g.voc.Subject, c)
}

// CategorySize returns ‖E(c)‖ — the member count of category c, 0 for
// non-categories. Precomputed at graph construction; a single load.
func (g *Graph) CategorySize(c rdf.TermID) int {
	if int(c) >= len(g.catSize) {
		return 0
	}
	return int(g.catSize[c])
}

// Attributes returns the literal values attached to e via non-metadata
// predicates plus the abstract — the "attributes" field of Table 1.
func (g *Graph) Attributes(e rdf.TermID) []string {
	var out []string
	for _, edge := range g.store.Out(e) {
		t := g.Dict().Term(edge.Node)
		if !t.IsLiteral() {
			continue
		}
		if edge.P == g.voc.Label {
			continue // labels are the names field
		}
		out = append(out, t.Value)
	}
	return out
}

// SimilarNames returns the labels of entities that redirect to or
// disambiguate to e — the "similar entity names" field of Table 1.
func (g *Graph) SimilarNames(e rdf.TermID) []string {
	var out []string
	for _, edge := range g.store.In(e) {
		if edge.P == g.voc.Redirects || edge.P == g.voc.Disambiguates {
			out = append(out, g.Name(edge.Node))
		}
	}
	return out
}

// Related returns the distinct entities connected to e by semantic
// (non-metadata) predicates in either direction, sorted by ID — the
// "related entity names" field of Table 1 uses their labels, and the
// neighbourhood baselines and the PPR walk of package expand traverse
// them. The slice is a run of the graph's frozen adjacency, shared by
// every caller: do not modify it. An ID beyond the store's term range
// (a term minted after the store froze) has no neighbours.
func (g *Graph) Related(e rdf.TermID) []rdf.TermID {
	g.relOnce.Do(g.buildRelated)
	if int(e)+1 >= len(g.relOff) {
		return nil
	}
	return g.relAdj[g.relOff[e]:g.relOff[e+1]]
}

// buildRelated freezes the semantic entity adjacency of every term ID
// into one CSR: both edge directions, deduplicated through an
// epoch-stamped array, each run sorted ascending.
func (g *Graph) buildRelated() {
	n := int(g.store.MaxTermID()) + 1
	off := make([]uint32, n+1)
	stamp := make([]uint32, n)
	var adj []rdf.TermID
	for id := 0; id < n; id++ {
		start := len(adj)
		epoch := uint32(id) + 1
		for _, edges := range [2][]rdf.Edge{g.store.Out(rdf.TermID(id)), g.store.In(rdf.TermID(id))} {
			for _, edge := range edges {
				if !g.voc.IsMeta(edge.P) && g.IsEntity(edge.Node) && stamp[edge.Node] != epoch {
					stamp[edge.Node] = epoch
					adj = append(adj, edge.Node)
				}
			}
		}
		slices.Sort(adj[start:])
		off[id+1] = uint32(len(adj))
	}
	g.relOff, g.relAdj = off, slices.Clip(adj)
}

// Abstract returns the first abstract literal of e, or "".
func (g *Graph) Abstract(e rdf.TermID) string {
	for _, edge := range g.store.Out(e) {
		if edge.P == g.voc.Abstract {
			if t := g.Dict().Term(edge.Node); t.IsLiteral() {
				return t.Value
			}
		}
	}
	return ""
}

// Names applies Name to each ID.
func (g *Graph) Names(ids []rdf.TermID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	return out
}
