// Package live is the write path of the PivotE stack: a generational
// graph layer that serves every read from an immutable generation while
// absorbing writes into an in-memory log.
//
// A Generation bundles the frozen read structures the rest of the system
// was built around — the CSR triple store, the entity-centric kg.Graph
// tables, the frozen term-dictionary search index, and the semantic-
// feature cache. Nothing inside a generation ever mutates, so one
// generation can serve any number of concurrent readers with the exact
// performance of the frozen-only stack.
//
// Writes (adds and tombstones) append to an arrival-order log guarded by
// a writer mutex and fold into a last-writer-wins map of final states; a
// View pairs one generation with the two counts each batch updates
// (distinct pending triples, and the graph size once they are folded
// in). Reads never consult the log. A background compactor folds a log
// prefix into a fresh store — the generation's triples minus tombstones,
// plus adds — rebuilds it (reusing Freeze, index build and kg table
// construction), carries the feature cache forward entry-by-entry, and
// publishes the new generation with an atomic.Pointer swap — the RCU
// pattern: in-flight requests keep the *Generation they loaded, no read
// ever blocks on a write, and the old generation is reclaimed by the
// garbage collector once the last pinned reader drops it (Go's GC is the
// grace period).
//
// All generations of one Store share a single append-only rdf.Dictionary,
// so TermIDs are stable across swaps: session state (seeds, pinned
// features) minted against any generation remains valid in every later
// one.
package live

import (
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
	"pivote/internal/snap"
)

// Generation is one immutable graph generation: the frozen store plus
// every derived read structure, tagged with a monotonically increasing
// ID. Readers pin a generation by holding the pointer; everything
// reachable from it is safe for concurrent use and never changes.
type Generation struct {
	// ID is the generation number, starting at 0 for the seed graph and
	// incremented by every compaction swap.
	ID uint64
	// Graph is the entity-centric view (dense IsEntity/PrimaryType
	// tables) over this generation's frozen store.
	Graph *kg.Graph
	// Searcher is the keyword search engine over this generation's
	// entity universe (frozen term-dictionary index).
	Searcher *search.Engine
	// Catalog is this generation's frozen feature catalog: the dense
	// FeatureID space with flat extent/adjacency/back-off arrays that the
	// semantic-feature ranker scatters over. Built at the same point as
	// the search index (graph freeze / compaction).
	Catalog *semfeat.Catalog
	// Features is this generation's semantic-feature cache: a thin
	// serving wrapper over Catalog plus the lazy fallback maps, seeded
	// from the previous generation's surviving off-catalog entries.
	Features *semfeat.FeatureCache
	// Own restricts result emission to a shard's partition when non-nil:
	// search, expand and candidate conditioning drop entities it rejects
	// before they enter any top-k page. All frozen structures (store,
	// graph, index, catalog) still cover the full entity universe, so
	// every per-entity score is bit-identical to an unpartitioned
	// generation's and a scatter-gather merge of the per-shard pages
	// reproduces the single-process result byte for byte. Nil means the
	// generation serves everything — the single-shard degenerate case.
	Own func(rdf.TermID) bool

	// mapping backs a snapshot-opened generation: the frozen arrays
	// alias it, so it must stay mapped for the generation's lifetime.
	// Nil for generations built in memory.
	mapping *snap.Mapping
}

// Mapping returns the snapshot mapping this generation was opened from,
// or nil when it was built in memory. Diagnostics only — callers must
// not Close it while the generation is reachable.
func (gen *Generation) Mapping() *snap.Mapping { return gen.mapping }

// newGeneration builds a generation from a frozen graph. prev supplies
// the feature-cache entries to carry forward; touched is the compacted
// writes' touched set (nil means nothing to carry — a fresh cache). own,
// when non-nil, partitions the generation's serving paths (see Own).
func newGeneration(id uint64, g *kg.Graph, params *search.Params, prev *semfeat.FeatureCache, touched, own func(rdf.TermID) bool) *Generation {
	var searcher *search.Engine
	if params != nil {
		searcher = search.NewEngineWithParams(g, *params)
	} else {
		searcher = search.NewEngine(g)
	}
	catalog := semfeat.NewCatalog(g)
	var features *semfeat.FeatureCache
	if prev == nil {
		features = semfeat.NewFeatureCacheFrom(g, catalog, nil, id, nil)
	} else {
		features = semfeat.NewFeatureCacheFrom(g, catalog, prev, id, touched)
	}
	gen := &Generation{ID: id, Graph: g, Searcher: searcher, Catalog: catalog, Features: features}
	if own != nil {
		gen.ApplyPartition(own)
	}
	trackGeneration(gen)
	recordCarry(gen)
	return gen
}

// ApplyPartition installs the emission restriction on a generation that
// was built (or opened) unpartitioned. It must run before the generation
// is published to readers — it swaps the searcher for an owner-filtered
// twin sharing the same frozen index.
func (gen *Generation) ApplyPartition(own func(rdf.TermID) bool) {
	gen.Own = own
	gen.Searcher = gen.Searcher.WithOwner(own)
}

// Store returns the generation's frozen triple store.
func (gen *Generation) Store() *rdf.Store { return gen.Graph.Store() }
