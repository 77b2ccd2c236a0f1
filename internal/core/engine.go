// Package core is the PivotE engine: it wires the search engine (§2.2),
// the recommendation engine (§2.3) and the session state into the
// interaction loop of the paper's interface (Fig. 2 architecture, Fig. 3
// workspace). Every user operation — submitting keywords, adding/removing
// example entities and semantic-feature conditions, looking up profiles,
// pivoting across domains, revisiting the timeline — returns the full
// interface state: ranked entities (x-axis), ranked semantic features
// (y-axis), the seven-level correlation heat map, and the timeline.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pivote/internal/expand"
	"pivote/internal/heatmap"
	"pivote/internal/kg"
	"pivote/internal/live"
	"pivote/internal/obs"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
	"pivote/internal/session"
	"pivote/internal/topk"
)

// Options configure an Engine; zero values select the documented
// defaults.
type Options struct {
	// TopEntities is the x-axis size (default 20).
	TopEntities int
	// TopFeatures is the y-axis size (default 15).
	TopFeatures int
	// PseudoSeeds is how many top keyword hits seed the feature
	// recommendation after a plain keyword query (default 3).
	PseudoSeeds int
	// SearchModel is the retrieval model for keyword queries (default
	// the paper's MLM).
	SearchModel search.Model
	// SearchParams override the retrieval hyperparameters when non-nil.
	SearchParams *search.Params
	// Expand configures the recommendation engine. SameTypeOnly defaults
	// to true (investigation keeps one domain on the x-axis).
	Expand *expand.Options
	// Features configures the semantic-feature model (ablations).
	Features semfeat.Options
	// Partition, when non-nil, makes this core a shard node: every
	// result page emits only the entities it accepts, while scoring
	// still runs against the full graph so the surviving scores are
	// bit-identical to an unpartitioned core's. The scatter-gather
	// router merges such pages back into the single-process result.
	Partition func(rdf.TermID) bool
	// SnapshotWrite overrides how compaction swaps are persisted when a
	// snapshot directory is configured — shard nodes write per-shard
	// snapshot files through it. Nil selects the plain generation file.
	SnapshotWrite func(gen *live.Generation, dir string) (string, error)
}

func (o Options) withDefaults() Options {
	if o.TopEntities <= 0 {
		o.TopEntities = 20
	}
	if o.TopFeatures <= 0 {
		o.TopFeatures = 15
	}
	if o.PseudoSeeds <= 0 {
		o.PseudoSeeds = 3
	}
	if o.Expand == nil {
		o.Expand = &expand.Options{SameTypeOnly: true}
	}
	return o
}

// Result is the assembled interface state after an operation — the five
// areas of Fig. 3.
type Result struct {
	// Query is the live query (area b) and Description its rendering.
	Query       session.Query
	Description string
	// Entities is the recommendation area (c): the x-axis.
	Entities []expand.Ranked
	// Features is the semantic-feature area (e): the y-axis.
	Features []semfeat.Score
	// Heat is the explanation area (f).
	Heat *heatmap.Matrix
	// Timeline is the query history (g).
	Timeline []session.Action
	// Fallback reports that the entity page came from the PPR fallback
	// because the SF extents produced no candidates. The scatter-gather
	// router needs this to merge correctly: a shard whose partition page
	// is empty falls back locally even when another shard's SF page is
	// not, and its fallback page must then be discarded — the global
	// engine would not have fallen back.
	Fallback bool

	// GenID is the generation this result was evaluated on. The
	// scatter-gather router compares it across shards: pages merged from
	// different generations would not equal ANY single-process output, so
	// a mixed fan-out (one shard answered just before a compaction swap,
	// another just after) must be re-read, not merged.
	GenID uint64

	// g is the generation's graph this result was computed on, so
	// rendering (names, types) agrees with the ranking even if a
	// compaction swap lands before the transport serializes it.
	g *kg.Graph
}

// Graph returns the graph the result was evaluated against — the
// engine's pinned generation at evaluation time.
func (r *Result) Graph() *kg.Graph { return r.g }

// Shared is the session-independent read core over one graph,
// generation-aware since the live-ingest subsystem: it is backed by a
// live.Store whose current generation bundles the frozen keyword search
// index, the KG tables and the semantic-feature cache. In the static
// configuration (NewShared) there is exactly one generation and nothing
// else ever runs; in the live configuration (NewLiveShared) ingest
// batches accumulate in the store's write log and a background compactor
// publishes fresh generations with an RCU swap. Every accessor reads the
// current generation; engines pin one generation per operation so a
// request never observes a half-switched graph.
type Shared struct {
	ls     *live.Store
	ingest bool
}

// NewShared builds the shared read core: the search index over the
// graph's entity universe plus an empty feature cache, wrapped as the
// sole generation of a (write-disabled) live store. No goroutines are
// spawned.
func NewShared(g *kg.Graph, opts Options) *Shared {
	opts = opts.withDefaults()
	return &Shared{
		ls: live.NewStore(g, live.Config{
			SearchParams: opts.SearchParams,
			Partition:    opts.Partition,
		}),
	}
}

// NewLiveShared is NewShared with the write path enabled: ingest batches
// are accepted and a background compactor folds them into fresh
// generations. Call Close on shutdown to stop the compactor.
func NewLiveShared(g *kg.Graph, opts Options) *Shared {
	sh := NewShared(g, opts)
	sh.ingest = true
	sh.ls.StartCompactor()
	return sh
}

// NewSharedFromGeneration builds the shared read core directly from a
// snapshot-opened generation — no index build, no catalog build; the
// generation serves as-is off its mapping.
func NewSharedFromGeneration(gen *live.Generation, opts Options) *Shared {
	opts = opts.withDefaults()
	return &Shared{
		ls: live.NewStoreFromGeneration(gen, live.Config{
			SearchParams: opts.SearchParams,
			Partition:    opts.Partition,
		}),
	}
}

// NewLiveSharedFromGeneration is NewSharedFromGeneration with the write
// path enabled. snapshotDir, when non-empty, makes every compaction
// swap persist the new generation there (the restore loop: boot from
// the newest snapshot, keep publishing newer ones).
func NewLiveSharedFromGeneration(gen *live.Generation, opts Options, snapshotDir string) *Shared {
	opts = opts.withDefaults()
	sh := &Shared{
		ls: live.NewStoreFromGeneration(gen, live.Config{
			SearchParams:  opts.SearchParams,
			SnapshotDir:   snapshotDir,
			SnapshotWrite: opts.SnapshotWrite,
			Partition:     opts.Partition,
		}),
		ingest: true,
	}
	sh.ls.StartCompactor()
	return sh
}

// NewLiveSharedWithSnapshots is NewLiveShared with compaction snapshots
// published to snapshotDir.
func NewLiveSharedWithSnapshots(g *kg.Graph, opts Options, snapshotDir string) *Shared {
	opts = opts.withDefaults()
	sh := &Shared{
		ls: live.NewStore(g, live.Config{
			SearchParams:  opts.SearchParams,
			SnapshotDir:   snapshotDir,
			SnapshotWrite: opts.SnapshotWrite,
			Partition:     opts.Partition,
		}),
		ingest: true,
	}
	sh.ls.StartCompactor()
	return sh
}

// Live exposes the generational store backing this core.
func (sh *Shared) Live() *live.Store { return sh.ls }

// IngestEnabled reports whether this core accepts live ingest.
func (sh *Shared) IngestEnabled() bool { return sh.ingest }

// Close stops the background compactor (if any) and rejects further
// ingest. Reads remain valid forever.
func (sh *Shared) Close() error { return sh.ls.Close() }

// AdoptSnapshot opens generation snapshot bytes and publishes them as
// the current generation — the replication swap-coordination hook: a
// replica receives the snapshot its shard's compacting peer published
// and adopts it through the same RCU swap a local compaction uses.
// force replaces even a same-ID generation (the divergence repair
// path). Reports the adopted generation and whether a swap happened;
// sessions pick the new generation up on their next operation exactly
// as they do across a local compaction swap.
func (sh *Shared) AdoptSnapshot(data []byte, force bool) (*live.Generation, bool, error) {
	gen, err := live.OpenGenerationBytes(data)
	if err != nil {
		return nil, false, err
	}
	adopted, err := sh.ls.AdoptGeneration(gen, force)
	if err != nil {
		return nil, false, err
	}
	return gen, adopted, nil
}

// Generation returns the current generation.
func (sh *Shared) Generation() *live.Generation { return sh.ls.Generation() }

// Graph exposes the current generation's knowledge graph.
func (sh *Shared) Graph() *kg.Graph { return sh.Generation().Graph }

// Searcher exposes the current generation's keyword search engine.
func (sh *Shared) Searcher() *search.Engine { return sh.Generation().Searcher }

// FeatureCache exposes the current generation's semantic-feature cache.
func (sh *Shared) FeatureCache() *semfeat.FeatureCache { return sh.Generation().Features }

// Catalog exposes the current generation's frozen feature catalog — the
// dense FeatureID space semantic-feature ranking scatters over.
func (sh *Shared) Catalog() *semfeat.Catalog { return sh.Generation().Catalog }

// Engine is a single-user PivotE instance: per-session query state over
// the shared read core. Methods that mutate the session are not safe for
// concurrent use; the HTTP server serializes them per session and lets
// read-only evaluation run concurrently.
//
// Every operation pins the generation that is current when it starts and
// uses it end to end — validation, ranking and rendering all see one
// immutable graph even if the compactor swaps mid-request. The pin is a
// local value, never stored on the engine, so an in-flight operation
// retains no old generation beyond its own duration. Building a pin is
// three small allocations — the per-generation wrappers (feature engine,
// expander) are plain structs over the generation's shared cache.
//
// The one deliberate exception is the evaluation cache: the last
// successful evaluation is memoized (keyed on the generation it ran
// against, the session mutation version and the field selection), so the
// dominant serving pattern — repeated GET /state reads of an unchanged
// session — re-serves the memoized result instead of re-running search,
// feature ranking and heat-map construction. The cached entry keeps its
// generation reachable until the next evaluation or the session's
// eviction, which bounds RCU generation reclaim by the live-session cap
// rather than by in-flight operations alone.
type Engine struct {
	shared *Shared
	sess   *session.Session
	log    []Op // every successfully applied op, in order
	opts   Options

	// ver counts successful session mutations (ApplyOps batches,
	// including replays, which route through ApplyOps). Mutations are
	// serialized by the caller (the HTTP server holds the session lock),
	// so a plain field suffices; concurrent readers observe it under the
	// same read lock.
	ver uint64
	// cache holds the memoized last evaluation. Atomic because reads
	// (and their store-on-miss) run concurrently under the server's read
	// lock.
	cache atomic.Pointer[evalEntry]
}

// evalEntry is one memoized evaluation. An entry is valid while the
// engine still serves the same generation, the session has not mutated
// and the field selection matches exactly (field subsets must not be
// served from a superset result: unrequested areas must stay absent
// from the response bytes).
type evalEntry struct {
	gen    *live.Generation
	ver    uint64
	fields Fields
	res    *Result
}

// pin is one generation plus the session-options wrappers over it.
type pin struct {
	gen      *live.Generation
	g        *kg.Graph
	searcher *search.Engine
	feats    *semfeat.Engine
	expander *expand.Expander
}

// pinGen captures the current generation for one operation. Safe for
// concurrent use; callers hold the returned pin for the duration of the
// operation and then drop it.
func (e *Engine) pinGen() *pin {
	gen := e.shared.Generation()
	fe := semfeat.NewEngineWithCache(gen.Features, e.opts.Features)
	xo := *e.opts.Expand
	if gen.Own != nil {
		// Shard node: every expansion method emits only the partition.
		xo.Owned = gen.Own
	}
	return &pin{
		gen:      gen,
		g:        gen.Graph,
		searcher: gen.Searcher,
		feats:    fe,
		expander: expand.New(fe, xo),
	}
}

// New builds an engine over the graph, constructing a private shared
// core (search index and feature cache). Multi-session servers build one
// Shared with NewShared and attach sessions with NewWithShared instead.
func New(g *kg.Graph, opts Options) *Engine {
	return NewWithShared(NewShared(g, opts), opts)
}

// NewWithShared attaches a fresh session engine to an existing shared
// core. The construction cost is a few small allocations — suitable for
// per-request session creation. The search hyperparameters are fixed by
// the shared core; opts.SearchParams is ignored here.
func NewWithShared(sh *Shared, opts Options) *Engine {
	opts = opts.withDefaults()
	return &Engine{
		shared: sh,
		sess:   session.New(),
		opts:   opts,
	}
}

// Shared exposes the shared read core this engine runs on.
func (e *Engine) Shared() *Shared { return e.shared }

// Graph exposes the knowledge graph (of the current generation).
func (e *Engine) Graph() *kg.Graph { return e.pinGen().g }

// Features exposes the semantic-feature engine (for explanations).
func (e *Engine) Features() *semfeat.Engine { return e.pinGen().feats }

// Searcher exposes the keyword search engine.
func (e *Engine) Searcher() *search.Engine { return e.pinGen().searcher }

// Session exposes the session (read-mostly; use Engine methods to act).
func (e *Engine) Session() *session.Session { return e.sess }

// Apply is the single mutation entry point of the protocol: it
// validates the op, applies it to the session, evaluates the resulting
// query and returns the full interface state. Errors are typed
// (*Error); a canceled context aborts evaluation mid-loop and leaves the
// session exactly as it was.
func (e *Engine) Apply(ctx context.Context, op Op) (*Result, error) {
	return e.ApplyFields(ctx, op, FieldsAll)
}

// ApplyFields is Apply with an explicit field selection: only the
// requested interface areas are assembled, so e.g. FieldEntities skips
// heat-map construction entirely.
func (e *Engine) ApplyFields(ctx context.Context, op Op, fields Fields) (*Result, error) {
	res, _, err := e.ApplyOps(ctx, []Op{op}, fields)
	return res, err
}

// ApplyOps applies a batch of ops atomically: session mutations happen
// op by op, the query is evaluated once after the last op, and any
// failure (validation or cancellation) rewinds the session and the op
// log to their pre-batch state. On error the returned index identifies
// the offending op (len(ops) when evaluation itself failed). This is
// what makes op-log replay and the /api/v1/ops batch endpoint cheap: a
// k-op batch costs k session updates plus one evaluation, not k.
func (e *Engine) ApplyOps(ctx context.Context, ops []Op, fields Fields) (*Result, int, error) {
	// One pin for the whole batch: validation and evaluation see the same
	// generation even if a compaction swap lands mid-batch.
	p := e.pinGen()
	t0 := stageStart()
	mark := e.sess.Mark()
	logLen := len(e.log)
	rewind := func() {
		e.sess.Rewind(mark)
		e.log = e.log[:logLen]
	}
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			rewind()
			opErrorsTotal.Inc()
			return nil, i, asTyped(err)
		}
		if err := e.applyOp(p, op); err != nil {
			rewind()
			opErrorsTotal.Inc()
			return nil, i, err
		}
		e.log = append(e.log, op)
		if c := opsTotal[op.Kind]; c != nil {
			c.Inc()
		}
	}
	res, err := e.evaluate(ctx, p, fields)
	if err != nil {
		rewind()
		opErrorsTotal.Inc()
		return nil, len(ops), err
	}
	// The batch evaluated the post-mutation session already — seed the
	// cache so the common "apply, then re-read state" pattern hits.
	e.ver++
	e.cache.Store(&evalEntry{gen: p.gen, ver: e.ver, fields: fields, res: res})
	if !t0.IsZero() {
		d := time.Since(t0)
		if len(ops) == 1 {
			if h := opSeconds[ops[0].Kind]; h != nil {
				h.Observe(d)
			}
		} else {
			opBatchSeconds.Observe(d)
		}
	}
	return res, len(ops), nil
}

// Ops returns a copy of the op log: every op successfully applied to
// this session, in order. Replaying it through ApplyOps on a fresh
// engine reproduces the session (timeline included) exactly — the op
// log IS the session file.
func (e *Engine) Ops() []Op { return append([]Op(nil), e.log...) }

// applyOp validates one op against the pinned graph/session and applies
// its session mutation. No evaluation happens here.
func (e *Engine) applyOp(p *pin, op Op) error {
	switch op.Kind {
	case OpKindSubmit:
		e.sess.Submit(op.Keywords)
	case OpKindAddSeed, OpKindRemoveSeed, OpKindLookup, OpKindPivot:
		if !p.g.IsEntity(op.Entity) {
			return Errf(KindNotFound, "op %s: term %d is not an entity", op.Kind, op.Entity)
		}
		name := p.g.Name(op.Entity)
		switch op.Kind {
		case OpKindAddSeed:
			e.sess.AddSeed(op.Entity, name)
		case OpKindRemoveSeed:
			e.sess.RemoveSeed(op.Entity, name)
		case OpKindLookup:
			e.sess.Lookup(op.Entity, name)
		case OpKindPivot:
			domain := "unknown"
			if t := p.g.PrimaryType(op.Entity); t != rdf.NoTerm {
				domain = p.g.Name(t)
			}
			e.sess.Pivot(op.Entity, name, domain)
		}
	case OpKindAddFeature, OpKindRemoveFeature:
		if op.Feature.Pred == rdf.NoTerm || !p.g.IsEntity(op.Feature.Anchor) {
			return Errf(KindInvalid, "op %s: feature has no valid anchor/predicate", op.Kind)
		}
		if op.Kind == OpKindAddFeature {
			e.sess.AddFeature(op.Feature, p.feats.Label(op.Feature))
		} else {
			e.sess.RemoveFeature(op.Feature, p.feats.Label(op.Feature))
		}
	case OpKindRevisit:
		if _, err := e.sess.Revisit(op.Step); err != nil {
			return &Error{Kind: KindInvalid, Msg: err.Error(), Err: err}
		}
	default:
		return Errf(KindInvalid, "unknown op kind %q", op.Kind)
	}
	return nil
}

// LookupCtx records a profile view through the op protocol and returns
// the profile; the query and results are unchanged (FieldNone skips
// evaluation). A failed lookup records nothing and returns KindNotFound.
func (e *Engine) LookupCtx(ctx context.Context, ent rdf.TermID) (kg.Profile, error) {
	if _, err := e.ApplyFields(ctx, OpLookup(ent), FieldNone); err != nil {
		return kg.Profile{}, err
	}
	return e.pinGen().g.ProfileOf(ent, 25), nil
}

// EvaluateCtx re-runs the current query with cancellation and field
// selection, without recording a new action. The generation current at
// entry serves the whole evaluation. Re-reads of an unchanged session on
// an unchanged generation are served from the evaluation cache — the
// memoized Result is immutable by convention (every consumer renders
// from it without writing), so one value serves concurrent readers.
func (e *Engine) EvaluateCtx(ctx context.Context, fields Fields) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, asTyped(err)
	}
	if ent := e.cache.Load(); ent != nil &&
		ent.ver == e.ver && ent.fields == fields && ent.gen == e.shared.Generation() {
		evalCacheHits.Inc()
		return ent.res, nil
	}
	evalCacheMisses.Inc()
	p := e.pinGen()
	res, err := e.evaluate(ctx, p, fields)
	if err != nil {
		return nil, err
	}
	e.cache.Store(&evalEntry{gen: p.gen, ver: e.ver, fields: fields, res: res})
	return res, nil
}

func (e *Engine) evaluate(ctx context.Context, p *pin, fields Fields) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, asTyped(err)
	}
	q := e.sess.Current()
	res := &Result{Query: q, Description: describeQuery(p, q), g: p.g, GenID: p.gen.ID}
	if fields&FieldTimeline != 0 {
		res.Timeline = e.sess.Timeline()
	}
	if fields&(FieldEntities|FieldFeatures|FieldHeatmap) == 0 {
		return res, nil
	}
	var entities []expand.Ranked
	var feats []semfeat.Score
	var err error
	rec := obs.RecorderOf(ctx)
	switch {
	case len(q.Seeds) > 0 || len(q.Features) > 0:
		entities, feats, res.Fallback, err = e.structured(ctx, rec, p, q)
	case q.Keywords != "":
		entities, feats, err = e.keyword(ctx, rec, p, q.Keywords)
	}
	if err != nil {
		return nil, asTyped(err)
	}
	if fields&FieldEntities != 0 {
		res.Entities = entities
	}
	if fields&FieldFeatures != 0 {
		res.Features = feats
	}
	if fields&FieldHeatmap != 0 {
		if err := ctx.Err(); err != nil {
			return nil, asTyped(err)
		}
		t0 := stageStart()
		res.Heat = heatmap.Build(p.feats, entities, feats)
		stageEnd(rec, obs.StageHeatmap, t0)
	}
	return res, nil
}

// keyword answers a plain keyword query: entities from the search engine,
// features recommended from the top hits as pseudo-seeds.
func (e *Engine) keyword(ctx context.Context, rec *obs.Recorder, p *pin, kw string) ([]expand.Ranked, []semfeat.Score, error) {
	t0 := stageStart()
	hits, err := p.searcher.SearchCtx(ctx, kw, e.opts.TopEntities, e.opts.SearchModel)
	stageEnd(rec, obs.StageSearch, t0)
	if err != nil {
		return nil, nil, err
	}
	entities := make([]expand.Ranked, len(hits))
	var pseudo []rdf.TermID
	for i, h := range hits {
		entities[i] = expand.Ranked{Entity: h.Entity, Name: h.Name, Score: h.Score}
		if i < e.opts.PseudoSeeds {
			pseudo = append(pseudo, h.Entity)
		}
	}
	if p.gen.Own != nil {
		// Shard node: the page above is partition-filtered, but the
		// pseudo-seeds must be the GLOBAL top hits — the single-process
		// engine derives features from the best hits of the whole graph,
		// and every shard must derive the identical feature list for the
		// router's y-axis merge to be byte-identical. A second bounded
		// search through the unfiltered twin engine recovers them. The
		// bound is min(PseudoSeeds, TopEntities): the single-process
		// engine takes its pseudo-seeds from the top-k page, so a page
		// smaller than PseudoSeeds caps the seed count.
		limit := e.opts.PseudoSeeds
		if limit > e.opts.TopEntities {
			limit = e.opts.TopEntities
		}
		t0 := stageStart()
		global, err := p.searcher.WithOwner(nil).SearchCtx(ctx, kw, limit, e.opts.SearchModel)
		stageEnd(rec, obs.StageSearch, t0)
		if err != nil {
			return nil, nil, err
		}
		pseudo = pseudo[:0]
		for _, h := range global {
			pseudo = append(pseudo, h.Entity)
		}
	}
	var feats []semfeat.Score
	if len(pseudo) > 0 {
		// Each pseudo-seed contributes its own features; rank per seed so
		// one odd hit cannot zero out the commonality product.
		t0 := stageStart()
		seen := map[semfeat.Feature]bool{}
		for _, ps := range pseudo {
			ranked, err := p.feats.RankCtx(ctx, []rdf.TermID{ps}, e.opts.TopFeatures)
			if err != nil {
				return nil, nil, err
			}
			for _, fs := range ranked {
				if !seen[fs.Feature] {
					seen[fs.Feature] = true
					feats = append(feats, fs)
				}
			}
		}
		feats = topFeatures(feats, e.opts.TopFeatures)
		stageEnd(rec, obs.StageRank, t0)
	}
	return entities, feats, nil
}

// structured answers a query with example entities and/or pinned feature
// conditions: Φ(Q) = pinned conditions ∪ top seed features; candidates
// come from the conditions' extents when conditions exist (they are
// mandatory), otherwise from expansion.
func (e *Engine) structured(ctx context.Context, rec *obs.Recorder, p *pin, q session.Query) ([]expand.Ranked, []semfeat.Score, bool, error) {
	var phi []semfeat.Score
	pinned := map[semfeat.Feature]bool{}
	for _, f := range q.Features {
		r := p.feats.Relevance(f, q.Seeds) // seeds empty → c=1 → r=d(π)
		phi = append(phi, semfeat.Score{
			Feature:    f,
			Label:      p.feats.Label(f),
			R:          r,
			ExtentSize: p.feats.ExtentSize(f),
		})
		pinned[f] = true
	}
	if len(q.Seeds) > 0 {
		t0 := stageStart()
		ranked, err := p.feats.RankCtx(ctx, q.Seeds, e.opts.TopFeatures)
		stageEnd(rec, obs.StageRank, t0)
		if err != nil {
			return nil, nil, false, err
		}
		for _, fs := range ranked {
			if !pinned[fs.Feature] {
				phi = append(phi, fs)
			}
		}
	}
	if len(phi) > e.opts.TopFeatures {
		phi = phi[:e.opts.TopFeatures]
	}

	var entities []expand.Ranked
	var err error
	t0 := stageStart()
	if len(q.Features) > 0 {
		entities, err = p.expander.ScoreCandidatesCtx(ctx, e.conditionCandidates(p, q), phi, e.opts.TopEntities)
	} else {
		// Seeds only: candidate generation and scoring share one scatter.
		entities, err = p.expander.ExpandWithFeaturesCtx(ctx, q.Seeds, phi, e.opts.TopEntities)
	}
	stageEnd(rec, obs.StageExpand, t0)
	if err != nil {
		return nil, nil, false, err
	}
	fellBack := false
	if len(entities) == 0 && len(q.Seeds) > 0 && len(q.Features) == 0 {
		// The SF extents found no same-type candidates — typical when
		// pivoting into a domain whose entities connect only via longer
		// paths (two directors share no neighbour, but do share
		// film→actor→film chains). Fall back to a random walk with
		// restart so a pivot never dead-ends.
		fellBack = true
		t0 = stageStart()
		entities, err = p.expander.ExpandWithCtx(ctx, expand.MethodPPR, q.Seeds, e.opts.TopEntities)
		stageEnd(rec, obs.StageExpand, t0)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return entities, phi, fellBack, nil
}

// conditionCandidates intersects the extents of all pinned features and
// removes the seeds.
func (e *Engine) conditionCandidates(p *pin, q session.Query) []rdf.TermID {
	var inter []rdf.TermID
	for i, f := range q.Features {
		ext := p.feats.Extent(f)
		if i == 0 {
			inter = append([]rdf.TermID(nil), ext...)
			continue
		}
		inter = rdf.IntersectSortedInto(inter[:0], inter, ext)
	}
	out := inter[:0]
	for _, c := range inter {
		isSeed := false
		for _, s := range q.Seeds {
			if c == s {
				isSeed = true
				break
			}
		}
		if !isSeed {
			out = append(out, c)
		}
	}
	return out
}

// DescribeQuery renders the query-condition area (Fig. 3-b).
func (e *Engine) DescribeQuery(q session.Query) string {
	return describeQuery(e.pinGen(), q)
}

func describeQuery(p *pin, q session.Query) string {
	desc := ""
	if q.Keywords != "" {
		desc += fmt.Sprintf("keywords=%q", q.Keywords)
	}
	if len(q.Seeds) > 0 {
		if desc != "" {
			desc += " "
		}
		desc += "entities=["
		for i, s := range q.Seeds {
			if i > 0 {
				desc += ", "
			}
			desc += p.g.Name(s)
		}
		desc += "]"
	}
	if len(q.Features) > 0 {
		if desc != "" {
			desc += " "
		}
		desc += "features=["
		for i, f := range q.Features {
			if i > 0 {
				desc += ", "
			}
			desc += p.feats.Label(f)
		}
		desc += "]"
	}
	if desc == "" {
		desc = "(empty query)"
	}
	return desc
}

// topFeatures selects the k best of the per-pseudo-seed feature pools
// under the global order (descending relevance, ties by extent size then
// label) via the shared bounded-heap helper — O(n log k) instead of the
// insertion sort it replaced.
func topFeatures(feats []semfeat.Score, k int) []semfeat.Score {
	return topk.Select(feats, k, func(a, b semfeat.Score) bool {
		if a.R != b.R {
			return a.R > b.R
		}
		if a.ExtentSize != b.ExtentSize {
			return a.ExtentSize < b.ExtentSize
		}
		return a.Label < b.Label
	})
}
