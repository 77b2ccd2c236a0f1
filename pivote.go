// Package pivote is a Go implementation of PivotE, the entity-oriented
// exploratory search system for knowledge graphs presented in:
//
//	Xueran Han, Jun Chen, Jiaheng Lu, Yueguo Chen, Xiaoyong Du.
//	PivotE: Revealing and Visualizing the Underlying Entity Structures
//	for Exploration. PVLDB 12(12): 1966–1969, 2019.
//
// PivotE lets users explore a knowledge graph without writing SPARQL:
// starting from a keyword query, the system recommends entities (the
// x-axis of its matrix interface) and semantic features — anchor entity +
// directional predicate pairs such as Tom_Hanks:starring — (the y-axis),
// explains their correlation with a seven-level heat map, and supports
// two core operations: investigation (expanding entities of the same
// type from examples) and pivoting (jumping to a different entity domain
// through a feature's anchor).
//
// # Quick start
//
// Every interaction is one of eight serializable operations applied
// through the engine's single entry point:
//
//	g := pivote.GenerateDemo(1000, 42)         // synthetic DBpedia-like KG
//	eng := pivote.New(g, pivote.Options{})
//	ctx := context.Background()
//	res, _ := eng.Apply(ctx, pivote.OpSubmit("forrest gump")) // keyword search
//	res, _ = eng.Apply(ctx, pivote.OpAddSeed(res.Entities[0].Entity)) // investigate
//	fmt.Println(res.RenderASCII())             // all five UI areas
//	res, _ = eng.Apply(ctx, pivote.OpPivot(g.EntityByName("Tom_Hanks"))) // browse
//
// Apply validates the op (typed errors: NotFound/Invalid/Canceled/
// Internal), honors context cancellation inside the expensive ranking
// loops, and records the op in a replayable log — a saved session is
// nothing but that []Op. Apply is the only way to change a session;
// EvaluateCtx re-reads it and LookupCtx returns an entity profile.
//
// Real data loads from N-Triples via LoadNTriples; the vocabulary
// (rdf:type, rdfs:label, dct:subject, dbo:wikiPageRedirects, ...) matches
// DBpedia dumps.
//
// The exported names are aliases of the implementation packages under
// internal/, re-exported here as the supported surface.
package pivote

import (
	"fmt"
	"io"
	"os"
	"strings"

	"pivote/internal/bgp"
	"pivote/internal/core"
	"pivote/internal/expand"
	"pivote/internal/heatmap"
	"pivote/internal/kg"
	"pivote/internal/live"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
	"pivote/internal/session"
	"pivote/internal/synth"
)

// Core engine surface.
type (
	// Engine is the PivotE system: search + recommendation + session.
	Engine = core.Engine
	// Options configure an Engine.
	Options = core.Options
	// Result is the assembled interface state (the five areas of the
	// paper's Fig. 3).
	Result = core.Result

	// Graph is the knowledge-graph view used by every component.
	Graph = kg.Graph
	// Profile is an entity's presentation-area content.
	Profile = kg.Profile

	// EntityID identifies an entity (a dictionary-encoded term).
	EntityID = rdf.TermID

	// Feature is a semantic feature π = (anchor, predicate, direction).
	Feature = semfeat.Feature
	// FeatureScore is a feature with its relevance r(π,Q).
	FeatureScore = semfeat.Score
	// FeatureCatalog is the frozen per-generation feature catalog: the
	// dense FeatureID space with flat extent/adjacency/back-off arrays
	// that semantic-feature ranking scatters over.
	FeatureCatalog = semfeat.Catalog
	// FeatureID is a dense catalog-local feature identifier.
	FeatureID = semfeat.FeatureID

	// RankedEntity is one recommended entity.
	RankedEntity = expand.Ranked

	// HeatMap is the seven-level correlation matrix of the explanation
	// area.
	HeatMap = heatmap.Matrix

	// Query is the reformulable query state; Action one timeline step.
	Query  = session.Query
	Action = session.Action

	// Op is one serializable operation of the protocol; OpKind its
	// discriminator and OpDTO its symbolic wire form.
	Op     = core.Op
	OpKind = core.OpKind
	OpDTO  = core.OpDTO

	// Fields selects which interface areas Apply/Evaluate assemble.
	Fields = core.Fields

	// EngineError is the typed error every Apply failure carries;
	// ErrKind is its taxonomy.
	EngineError = core.Error
	ErrKind     = core.ErrKind

	// SearchModel selects the keyword-retrieval model.
	SearchModel = search.Model
	// SearchParams are the retrieval hyperparameters.
	SearchParams = search.Params

	// BGPQuery is a SPARQL-style basic graph pattern — the structured
	// access path the paper contrasts exploration against.
	BGPQuery = bgp.Query
	// BGPBinding is one result row of a BGP query.
	BGPBinding = bgp.Binding
)

// Feature directions.
const (
	// Backward anchors the feature at the triple object
	// (Tom_Hanks:starring = films starring Tom Hanks).
	Backward = semfeat.Backward
	// Forward anchors it at the subject (Forrest_Gump:~starring = the
	// cast of Forrest Gump).
	Forward = semfeat.Forward
)

// Retrieval models.
const (
	// ModelMLM is the paper's five-field mixture of language models.
	ModelMLM = search.ModelMLM
	// ModelBM25F, ModelLMNames and ModelBoolean are baselines.
	ModelBM25F   = search.ModelBM25F
	ModelLMNames = search.ModelLMNames
	ModelBoolean = search.ModelBoolean
)

// NoEntity is the zero EntityID, returned by failed lookups.
const NoEntity = rdf.NoTerm

// Operation kinds (the wire values of the protocol).
const (
	OpKindSubmit        = core.OpKindSubmit
	OpKindAddSeed       = core.OpKindAddSeed
	OpKindRemoveSeed    = core.OpKindRemoveSeed
	OpKindAddFeature    = core.OpKindAddFeature
	OpKindRemoveFeature = core.OpKindRemoveFeature
	OpKindLookup        = core.OpKindLookup
	OpKindPivot         = core.OpKindPivot
	OpKindRevisit       = core.OpKindRevisit
)

// Error kinds of the typed taxonomy.
const (
	KindNotFound = core.KindNotFound
	KindInvalid  = core.KindInvalid
	KindCanceled = core.KindCanceled
	KindInternal = core.KindInternal
)

// Result field selectors for Engine.ApplyFields / EvaluateCtx.
const (
	FieldEntities = core.FieldEntities
	FieldFeatures = core.FieldFeatures
	FieldHeatmap  = core.FieldHeatmap
	FieldTimeline = core.FieldTimeline
	FieldNone     = core.FieldNone
	FieldsAll     = core.FieldsAll
)

// Op constructors — one per operation of the protocol.
var (
	OpSubmit        = core.OpSubmit
	OpAddSeed       = core.OpAddSeed
	OpRemoveSeed    = core.OpRemoveSeed
	OpAddFeature    = core.OpAddFeature
	OpRemoveFeature = core.OpRemoveFeature
	OpLookup        = core.OpLookup
	OpPivot         = core.OpPivot
	OpRevisit       = core.OpRevisit
)

// ParseFields parses a comma-separated field selection, e.g.
// "entities,heatmap"; the empty string selects everything.
func ParseFields(s string) (Fields, error) { return core.ParseFields(s) }

// ErrKindOf classifies any error returned by the engine.
func ErrKindOf(err error) ErrKind { return core.KindOf(err) }

// EncodeOp converts an op to its symbolic wire form (IRIs and feature
// labels), the inverse of DecodeOp. An op log encoded this way is the
// session-file format and the /api/v1/ops request body.
func EncodeOp(g *Graph, op Op) OpDTO { return core.EncodeOp(g, op) }

// DecodeOp resolves a wire op against the graph.
func DecodeOp(g *Graph, d OpDTO) (Op, error) { return core.DecodeOp(g, d) }

// SharedCore is the session-independent read core (graph, search index,
// feature cache), safe for concurrent use and shared by all sessions of
// a process. It is generation-aware: see NewLiveShared for the write
// path.
type SharedCore = core.Shared

// Live-ingest surface: the generational write path of internal/live.
type (
	// LiveStore is the generational graph store: an immutable current
	// generation plus a log of pending writes, compacted into fresh
	// generations with an RCU swap.
	LiveStore = live.Store
	// LiveGeneration is one immutable graph generation (store, KG
	// tables, search index, feature cache).
	LiveGeneration = live.Generation
	// LiveView is one consistent snapshot of a LiveStore: the current
	// generation (which serves every read) plus the pending-write counts
	// Pending and Len.
	LiveView = live.View
	// IngestResult reports what one ingest batch did.
	IngestResult = live.IngestResult
)

// NewLiveShared is NewShared with the write path enabled: the returned
// core accepts ingest batches (sh.Live().Ingest / IngestNTriples) and
// runs a background compactor that folds them into fresh generations
// without ever blocking readers. Call Close on shutdown.
func NewLiveShared(g *Graph, opts Options) *SharedCore { return core.NewLiveShared(g, opts) }

// New builds a PivotE engine over a graph. The engine is stateful (it
// owns a session); mutating operations are serialized per session by the
// HTTP server, while the underlying read core is concurrency-safe.
func New(g *Graph, opts Options) *Engine { return core.New(g, opts) }

// NewShared builds the shared read core once; attach per-user sessions
// with NewWithShared.
func NewShared(g *Graph, opts Options) *SharedCore { return core.NewShared(g, opts) }

// NewWithShared attaches a fresh session engine to a shared core —
// cheap enough to call per request.
func NewWithShared(sh *SharedCore, opts Options) *Engine { return core.NewWithShared(sh, opts) }

// GenerateDemo builds the deterministic synthetic DBpedia-like graph used
// by the examples and experiments: scale is the film count (total
// entities ≈ 2.2×scale) and seed drives all randomness. The paper's
// running examples (Forrest_Gump, Tom_Hanks, ...) are embedded at every
// scale.
func GenerateDemo(scale int, seed int64) *Graph {
	cfg := synth.Scaled(scale)
	cfg.Seed = seed
	return synth.Generate(cfg).Graph
}

// LoadNTriples reads an N-Triples stream into a new Graph.
func LoadNTriples(r io.Reader) (*Graph, error) {
	st := rdf.NewStore(nil)
	if _, err := rdf.ReadNTriples(st, r); err != nil {
		return nil, fmt.Errorf("pivote: %w", err)
	}
	st.Freeze()
	return kg.NewGraph(st), nil
}

// LoadNTriplesFile reads an N-Triples file into a new Graph.
func LoadNTriplesFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pivote: %w", err)
	}
	defer f.Close()
	return LoadNTriples(f)
}

// SaveNTriples writes the graph's triples as N-Triples.
func SaveNTriples(g *Graph, w io.Writer) error {
	return rdf.WriteNTriples(g.Store(), w)
}

// SaveSnapshot writes the graph in the binary snapshot format — the fast
// path for repeatedly serving the same graph (no parsing or re-interning
// on load).
func SaveSnapshot(g *Graph, w io.Writer) error {
	return rdf.WriteSnapshot(g.Store(), w)
}

// LoadSnapshot reads a binary snapshot written by SaveSnapshot.
func LoadSnapshot(r io.Reader) (*Graph, error) {
	st, err := rdf.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("pivote: %w", err)
	}
	return kg.NewGraph(st), nil
}

// LoadGraphFile loads either format by extension: ".snap" snapshots, and
// anything else as N-Triples.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pivote: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".snap") {
		return LoadSnapshot(f)
	}
	return LoadNTriples(f)
}

// Generation-snapshot surface: the sectioned serving format (v2). Where
// SaveSnapshot persists only the triples (and LoadSnapshot re-derives
// every index), SaveGeneration persists a complete frozen generation —
// dictionary, CSR store, KG tables, search index and feature catalog —
// and OpenGeneration maps it back with zero-copy array aliasing, so a
// process restart skips every build pass.

// SaveGeneration atomically writes a complete generation snapshot to
// path (conventionally with the ".pvgen" extension).
func SaveGeneration(gen *LiveGeneration, path string) error {
	return live.WriteGenerationFile(gen, path)
}

// OpenGeneration memory-maps a generation snapshot written by
// SaveGeneration (or by a live store's SnapshotDir publication). The
// returned generation serves immediately; wrap it with
// NewSharedFromGeneration (or NewLiveSharedFromGeneration) to attach
// sessions. The underlying mapping stays open for the generation's
// lifetime.
func OpenGeneration(path string) (*LiveGeneration, error) {
	return live.OpenGeneration(path)
}

// FindNewestSnapshot returns the highest-generation snapshot in dir, or
// "" when there is none.
func FindNewestSnapshot(dir string) (string, error) {
	return live.FindNewestSnapshot(dir)
}

// SnapshotPath returns the canonical snapshot file name for a
// generation number inside dir (zero-padded so lexicographic order is
// generation order).
func SnapshotPath(dir string, gen uint64) string {
	return live.SnapshotPath(dir, gen)
}

// NewSharedFromGeneration builds the shared read core from an opened
// generation snapshot — no rebuild of any derived structure.
func NewSharedFromGeneration(gen *LiveGeneration, opts Options) *SharedCore {
	return core.NewSharedFromGeneration(gen, opts)
}

// NewLiveSharedFromGeneration is NewSharedFromGeneration with the write
// path enabled; compaction swaps publish fresh snapshots to snapshotDir
// when it is non-empty.
func NewLiveSharedFromGeneration(gen *LiveGeneration, opts Options, snapshotDir string) *SharedCore {
	return core.NewLiveSharedFromGeneration(gen, opts, snapshotDir)
}

// NewLiveSharedWithSnapshots is NewLiveShared with compaction snapshots
// published to snapshotDir.
func NewLiveSharedWithSnapshots(g *Graph, opts Options, snapshotDir string) *SharedCore {
	return core.NewLiveSharedWithSnapshots(g, opts, snapshotDir)
}

// FeatureLabel renders a feature in the paper's anchor:predicate
// notation.
func FeatureLabel(g *Graph, f Feature) string { return semfeat.Label(g, f) }

// ParseFeature resolves "Anchor:predicate" / "Anchor:~predicate" notation
// against the graph (local names or full IRIs), the inverse of
// FeatureLabel.
func ParseFeature(g *Graph, s string) (Feature, error) {
	return semfeat.Parse(g, s)
}

// ParseBGP parses a SPARQL-like basic-graph-pattern query, e.g.
//
//	SELECT ?film WHERE { ?film starring Tom_Hanks . ?film director Robert_Zemeckis }
func ParseBGP(g *Graph, query string) (BGPQuery, error) {
	return bgp.Parse(g, query)
}

// ExecuteBGP evaluates a basic graph pattern and returns the variable
// bindings, deterministically ordered.
func ExecuteBGP(g *Graph, q BGPQuery) ([]BGPBinding, error) {
	return bgp.Execute(g.Store(), q)
}
