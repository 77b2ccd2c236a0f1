// Package expand implements PivotE's entity recommendation (§2.3.2 of the
// paper): given a query Q of seed entities, candidate entities are ranked
// by r(e,Q) = Σ_{π∈Φ(Q)} p(π|e) × r(π,Q), where Φ(Q) is the top-K
// semantic features of the seed set. This is the entity-set-expansion
// model of the paper's refs [1][6].
//
// For the quality experiments the package also implements the classical
// baselines a full evaluation would compare against: common-neighbour
// counting, Jaccard neighbourhood similarity, unweighted shared-feature
// counting, and personalized PageRank (random walk with restart).
package expand

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
	"pivote/internal/topk"
)

// Method selects the expansion model.
type Method int

const (
	// MethodPivotE is the paper's SF-based ranking.
	MethodPivotE Method = iota
	// MethodCommonNeighbors scores candidates by summed common-neighbour
	// counts with the seeds.
	MethodCommonNeighbors
	// MethodJaccard scores candidates by summed Jaccard similarity of
	// entity neighbourhoods.
	MethodJaccard
	// MethodFeatureCount counts shared top features without weights —
	// PivotE with both d(π) and the error-tolerant back-off removed.
	MethodFeatureCount
	// MethodPPR is personalized PageRank (random walk with restart) from
	// the seed set over the semantic entity graph.
	MethodPPR
)

func (m Method) String() string {
	switch m {
	case MethodPivotE:
		return "PivotE-SF"
	case MethodCommonNeighbors:
		return "CommonNeighbors"
	case MethodJaccard:
		return "Jaccard"
	case MethodFeatureCount:
		return "FeatureCount"
	case MethodPPR:
		return "PPR"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists every implemented expansion method, PivotE first.
func Methods() []Method {
	return []Method{MethodPivotE, MethodCommonNeighbors, MethodJaccard, MethodFeatureCount, MethodPPR}
}

// Options tune expansion; the zero value means the defaults documented on
// each field.
type Options struct {
	// TopFeatures is K = |Φ(Q)|, the number of ranked features used for
	// candidate generation and scoring. Default 50.
	TopFeatures int
	// SameTypeOnly keeps only candidates sharing a primary type with at
	// least one seed — PivotE's investigation semantics (the x-axis holds
	// entities of one type).
	SameTypeOnly bool
	// IncludeSeeds keeps the seeds themselves in the ranking; by default
	// they are removed.
	IncludeSeeds bool
	// PPRAlpha is the restart probability (default 0.15) and
	// PPRIterations the number of power iterations (default 15) for
	// MethodPPR.
	PPRAlpha      float64
	PPRIterations int
	// Owned restricts emission to a shard's partition: when non-nil,
	// candidates it rejects are dropped before scoring. Scores of the
	// surviving candidates are bit-identical to an unpartitioned
	// expander's — every method scores against the full graph (extents,
	// neighbourhoods, PPR walk) and only the candidate set narrows.
	Owned func(rdf.TermID) bool
}

func (o Options) withDefaults() Options {
	if o.TopFeatures <= 0 {
		o.TopFeatures = 50
	}
	if o.PPRAlpha <= 0 || o.PPRAlpha >= 1 {
		o.PPRAlpha = 0.15
	}
	if o.PPRIterations <= 0 {
		o.PPRIterations = 15
	}
	return o
}

// Ranked is one recommended entity.
type Ranked struct {
	Entity rdf.TermID
	Name   string
	Score  float64
}

// Expander runs entity set expansion over one graph. All methods are
// safe for concurrent use: working state lives in pooled scratch
// structures, and the feature engine is concurrency-safe.
type Expander struct {
	en   *semfeat.Engine
	g    *kg.Graph
	opts Options
}

// New returns an expander with the given options over the feature
// engine's graph.
func New(en *semfeat.Engine, opts Options) *Expander {
	return &Expander{en: en, g: en.Graph(), opts: opts.withDefaults()}
}

// Options returns the effective options.
func (x *Expander) Options() Options { return x.opts }

// denseSize is the dense-array bound for per-TermID scratch.
func (x *Expander) denseSize() int { return int(x.g.Store().MaxTermID()) + 2 }

// Expand ranks candidates for the seed set with the paper's model and
// returns the top-k entities along with the ranked feature set Φ(Q) that
// produced them (for the y-axis and the heat map). k <= 0 returns all.
//
// Scoring is extent-driven: one scatter pass over the ranked features'
// extents produces both the candidate union and every exact-match score,
// and only the (candidate, feature) misses fall back to the per-pair
// probability probe. See score.go.
func (x *Expander) Expand(seeds []rdf.TermID, k int) ([]Ranked, []semfeat.Score) {
	out, feats, _ := x.ExpandCtx(context.Background(), seeds, k)
	return out, feats
}

// ExpandCtx is Expand with cancellation: the scatter and finalize passes
// check the context between features/chunks and the call returns the
// context's error instead of a partial ranking when it fires.
func (x *Expander) ExpandCtx(ctx context.Context, seeds []rdf.TermID, k int) ([]Ranked, []semfeat.Score, error) {
	defer expandEnd(histPivotE, expandStart())
	feats, err := x.en.RankCtx(ctx, seeds, x.opts.TopFeatures)
	if err != nil {
		return nil, nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(x.denseSize(), maskWords(len(feats)))
	if err := x.scatter(ctx, sc, feats); err != nil {
		return nil, nil, err
	}
	cands := x.collectCandidates(sc, seeds)
	if err := x.finalize(ctx, sc, cands, feats); err != nil {
		return nil, nil, err
	}
	return x.rankTop(sc, cands, k), feats, nil
}

// ExpandWith ranks candidates using the selected method. For
// MethodPivotE it is equivalent to Expand (features discarded).
func (x *Expander) ExpandWith(method Method, seeds []rdf.TermID, k int) []Ranked {
	out, _ := x.ExpandWithCtx(context.Background(), method, seeds, k)
	return out
}

// ExpandWithCtx is ExpandWith with cancellation, checked inside each
// method's long loop (scatter pass, neighbourhood walk, PPR iteration).
func (x *Expander) ExpandWithCtx(ctx context.Context, method Method, seeds []rdf.TermID, k int) ([]Ranked, error) {
	defer expandEnd(histMethod[method], expandStart())
	switch method {
	case MethodPivotE:
		r, _, err := x.ExpandCtx(ctx, seeds, k)
		return r, err
	case MethodCommonNeighbors:
		return x.expandNeighbors(ctx, seeds, k, false)
	case MethodJaccard:
		return x.expandNeighbors(ctx, seeds, k, true)
	case MethodFeatureCount:
		return x.expandFeatureCount(ctx, seeds, k)
	case MethodPPR:
		return x.expandPPR(ctx, seeds, k)
	default:
		panic(fmt.Sprintf("expand: unknown method %d", int(method)))
	}
}

// CandidatesOf exposes candidate generation for callers that assemble
// their own feature sets (the core engine mixes user-pinned feature
// conditions with seed-derived features): the union of the features'
// extents, same-type filtered, seeds removed per the options.
func (x *Expander) CandidatesOf(seeds []rdf.TermID, feats []semfeat.Score) []rdf.TermID {
	return x.candidates(seeds, feats)
}

// ExpandWithFeaturesCtx is ExpandWithFeatures with cancellation.
func (x *Expander) ExpandWithFeaturesCtx(ctx context.Context, seeds []rdf.TermID, feats []semfeat.Score, k int) ([]Ranked, error) {
	defer expandEnd(histFeatures, expandStart())
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(x.denseSize(), maskWords(len(feats)))
	if err := x.scatter(ctx, sc, feats); err != nil {
		return nil, err
	}
	cands := x.collectCandidates(sc, seeds)
	if err := x.finalize(ctx, sc, cands, feats); err != nil {
		return nil, err
	}
	return x.rankTop(sc, cands, k), nil
}

// ScoreCandidatesCtx is ScoreCandidates with cancellation.
func (x *Expander) ScoreCandidatesCtx(ctx context.Context, cands []rdf.TermID, feats []semfeat.Score, k int) ([]Ranked, error) {
	defer expandEnd(histScore, expandStart())
	if x.opts.Owned != nil {
		kept := make([]rdf.TermID, 0, len(cands))
		for _, c := range cands {
			if x.opts.Owned(c) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(x.denseSize(), maskWords(len(feats)))
	if err := x.scatter(ctx, sc, feats); err != nil {
		return nil, err
	}
	if err := x.finalize(ctx, sc, cands, feats); err != nil {
		return nil, err
	}
	return x.rankTop(sc, cands, k), nil
}

// ExpandWithFeatures ranks candidates for an explicit feature set Φ in
// one pass: the scatter yields the candidate union (same-type filtered,
// seeds removed per the options) and the exact-match scores together.
// This is Expand without the feature ranking — the core engine uses it
// when Φ mixes user-pinned conditions with seed-derived features.
func (x *Expander) ExpandWithFeatures(seeds []rdf.TermID, feats []semfeat.Score, k int) []Ranked {
	out, _ := x.ExpandWithFeaturesCtx(context.Background(), seeds, feats, k)
	return out
}

// ScoreCandidates ranks an explicit candidate set against an explicit
// feature set with the paper's r(e,Q) = Σ p(π|e)·r(π,Q) and returns the
// top-k.
func (x *Expander) ScoreCandidates(cands []rdf.TermID, feats []semfeat.Score, k int) []Ranked {
	out, _ := x.ScoreCandidatesCtx(context.Background(), cands, feats, k)
	return out
}

// candidates unions the extents of the ranked features, applies the
// same-type filter and removes seeds. The result is a fresh sorted slice.
func (x *Expander) candidates(seeds []rdf.TermID, feats []semfeat.Score) []rdf.TermID {
	sc := scratchPool.Get().(*scratch)
	sc.begin(x.denseSize(), maskWords(len(feats)))
	_ = x.scatter(context.Background(), sc, feats)
	out := append([]rdf.TermID(nil), x.collectCandidates(sc, seeds)...)
	scratchPool.Put(sc)
	return out
}

// expandFeatureCount scores candidates by the number of top features they
// hold, unweighted and strict: the popcount of the scatter bitmask.
func (x *Expander) expandFeatureCount(ctx context.Context, seeds []rdf.TermID, k int) ([]Ranked, error) {
	feats, err := x.en.RankCtx(ctx, seeds, x.opts.TopFeatures)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(x.denseSize(), maskWords(len(feats)))
	if err := x.scatter(ctx, sc, feats); err != nil {
		return nil, err
	}
	cands := x.collectCandidates(sc, seeds)
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]float64, len(cands))
	}
	sc.scores = sc.scores[:len(cands)]
	w := sc.words
	for i, e := range cands {
		n := 0
		if sc.stamp[e] == sc.epoch {
			for _, word := range sc.mask[int(e)*w : int(e)*w+w] {
				n += bits.OnesCount64(word)
			}
		}
		sc.scores[i] = float64(n)
	}
	return x.rankTop(sc, cands, k), nil
}

// nbrScratch pools the dense working state of the neighbourhood
// baselines: an epoch-stamped array for candidate collection (the same
// pattern as the scorer's scratch) and reusable ID buffers. Neighbour
// sets themselves are runs of the graph's frozen adjacency
// (kg.Graph.Related), so no per-call set is built at all.
type nbrScratch struct {
	candEpoch uint32
	candStamp []uint32 // candidate-set dedup
	seeds     []rdf.TermID
	types     []rdf.TermID
}

var nbrPool = sync.Pool{New: func() interface{} { return &nbrScratch{} }}

// begin sizes the stamp array for n term IDs and opens a fresh
// candidate epoch.
func (ns *nbrScratch) begin(n int) {
	if len(ns.candStamp) < n {
		ns.candStamp = make([]uint32, n)
	}
	ns.candEpoch++
	if ns.candEpoch == 0 {
		for i := range ns.candStamp {
			ns.candStamp[i] = 0
		}
		ns.candEpoch = 1
	}
}

// expandNeighbors implements the common-neighbour and Jaccard baselines.
// Candidates are entities at distance 2 from a seed (sharing at least one
// neighbour). Neighbour sets are the sorted runs of the frozen adjacency;
// intersections are linear merges.
func (x *Expander) expandNeighbors(ctx context.Context, seeds []rdf.TermID, k int, jaccard bool) ([]Ranked, error) {
	ns := nbrPool.Get().(*nbrScratch)
	defer nbrPool.Put(ns)
	ns.begin(x.denseSize())

	sortedSeeds := append(ns.seeds[:0], seeds...)
	slices.Sort(sortedSeeds)
	ns.seeds = sortedSeeds
	seedNbrs := make([][]rdf.TermID, len(seeds))
	var cands []rdf.TermID
	for i, s := range seeds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seedNbrs[i] = x.g.Related(s)
		for _, n := range seedNbrs[i] {
			for _, c := range x.g.Related(n) {
				if !x.opts.IncludeSeeds && rdf.ContainsSorted(sortedSeeds, c) {
					continue
				}
				if x.opts.Owned != nil && !x.opts.Owned(c) {
					continue
				}
				if ns.candStamp[c] != ns.candEpoch {
					ns.candStamp[c] = ns.candEpoch
					cands = append(cands, c)
				}
			}
		}
	}
	ns.types = ns.types[:0]
	if x.opts.SameTypeOnly {
		for _, s := range seeds {
			if t := x.g.PrimaryType(s); t != rdf.NoTerm && !slices.Contains(ns.types, t) {
				ns.types = append(ns.types, t)
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if slices.Contains(ns.types, x.g.PrimaryType(c)) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	slices.Sort(cands)

	ranked := make([]Ranked, 0, len(cands))
	for i, c := range cands {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cn := x.g.Related(c)
		score := 0.0
		for i := range seeds {
			inter := rdf.IntersectSorted(cn, seedNbrs[i])
			if jaccard {
				union := len(cn) + len(seedNbrs[i]) - inter
				if union > 0 {
					score += float64(inter) / float64(union)
				}
			} else {
				score += float64(inter)
			}
		}
		if score > 0 {
			ranked = append(ranked, Ranked{Entity: c, Name: x.g.Name(c), Score: score})
		}
	}
	return x.top(ranked, k), nil
}

// top selects the k best (descending score, ties by entity ID) via the
// shared bounded-heap helper.
func (x *Expander) top(ranked []Ranked, k int) []Ranked {
	return topk.Select(ranked, k, lessRanked)
}
