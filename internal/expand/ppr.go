package expand

import (
	"context"
	"math/bits"
	"slices"
	"sync"

	"pivote/internal/rdf"
	"pivote/internal/topk"
)

// The PPR fallback is a power iteration over the graph's frozen semantic
// adjacency (kg.Graph.Related) with the mass held in dense per-TermID
// arrays. Its output is bit-identical to the map-based walk kept as the
// executable spec in ppr_spec_test.go, because every value is the same
// sequence of floating-point additions in the same order:
//
//  1. each restart node, ascending, receives α·restart;
//  2. each live node, ascending, adds its share to its neighbours in
//     adjacency order — or, dangling, gives its mass back to the restart
//     nodes, ascending;
//  3. values below pprPrune are dropped.
//
// The next frontier comes out of a scan of the touched bitmap, which is
// already ascending, so no iteration sorts anything.

// pprPrune drops negligible mass after every iteration.
const pprPrune = 1e-9

// pprScratch is the pooled dense state of one walk. Between calls cur,
// next and touched are all zero; a completed walk restores that before
// its scratch goes back to the pool.
type pprScratch struct {
	cur, next []float64    // mass per TermID: this iteration's, the next one's
	touched   []uint64     // bitmap of the entries written into next
	live      []rdf.TermID // ascending nodes holding mass in cur
	spare     []rdf.TermID // the next frontier, swapped with live
	restart   []rdf.TermID // ascending distinct seeds
	weight    []float64    // restart probability of each restart node
	types     []rdf.TermID // seed primary types
	ranked    []Ranked     // pre-selection result buffer
}

var pprPool = sync.Pool{New: func() interface{} { return &pprScratch{} }}

// grow sizes the dense arrays for term IDs below n. Arrays only grow; a
// scratch last used on a smaller generation is resized, never indexed
// past its end.
func (ps *pprScratch) grow(n int) {
	if len(ps.cur) < n {
		ps.cur = make([]float64, n)
		ps.next = make([]float64, n)
		ps.touched = make([]uint64, (n+63)/64)
	}
}

// expandPPR runs a power-iteration personalized PageRank from the seeds
// over the semantic entity graph (edges treated as bidirectional, uniform
// transition probabilities).
//
// The scratch is sized from this expander's graph on every call and
// covers the largest seed: a seed minted after the graph froze has no
// neighbours in it, so it is a dangling node, exactly as in the spec.
func (x *Expander) expandPPR(ctx context.Context, seeds []rdf.TermID, k int) ([]Ranked, error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	ps := pprPool.Get().(*pprScratch)
	restart, weight := ps.restartOf(seeds)
	n := x.denseSize()
	if m := int(restart[len(restart)-1]) + 1; m > n {
		n = m
	}
	ps.grow(n)

	alpha := x.opts.PPRAlpha
	cur, next, touched := ps.cur, ps.next, ps.touched[:(n+63)/64]
	live, spare := ps.live[:0], ps.spare[:0]
	for i, s := range restart {
		cur[s] = weight[i]
		live = append(live, s)
	}
	for it := 0; it < x.opts.PPRIterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err // the dirty scratch is dropped, not pooled
		}
		for i, s := range restart {
			next[s] += alpha * weight[i]
			touched[s>>6] |= 1 << (s & 63)
		}
		for _, e := range live {
			mass := cur[e]
			cur[e] = 0
			ns := x.g.Related(e)
			if len(ns) == 0 {
				// Dangling mass restarts.
				for i, s := range restart {
					next[s] += (1 - alpha) * mass * weight[i]
				}
				continue
			}
			share := (1 - alpha) * mass / float64(len(ns))
			for _, nb := range ns {
				next[nb] += share
				touched[nb>>6] |= 1 << (nb & 63)
			}
		}
		spare = spare[:0]
		for w, word := range touched {
			if word == 0 {
				continue
			}
			touched[w] = 0
			for ; word != 0; word &= word - 1 {
				e := rdf.TermID(w<<6 | bits.TrailingZeros64(word))
				if next[e] < pprPrune {
					next[e] = 0
					continue
				}
				spare = append(spare, e)
			}
		}
		cur, next = next, cur
		live, spare = spare, live
	}
	ps.cur, ps.next = cur, next

	out := x.rankPPR(ps, live, restart, k)
	ps.live, ps.spare = live, spare
	pprPool.Put(ps)
	return out, nil
}

// restartOf fills the scratch's restart set: the distinct seeds,
// ascending, each weighted 1/|seeds| per occurrence.
func (ps *pprScratch) restartOf(seeds []rdf.TermID) ([]rdf.TermID, []float64) {
	sorted := append(ps.restart[:0], seeds...)
	slices.Sort(sorted)
	restart, weight := sorted[:0], ps.weight[:0]
	inv := 1.0 / float64(len(seeds))
	for _, s := range sorted {
		if len(restart) > 0 && restart[len(restart)-1] == s {
			weight[len(weight)-1] += inv
			continue
		}
		restart = append(restart, s)
		weight = append(weight, inv)
	}
	ps.restart, ps.weight = restart, weight
	return restart, weight
}

// rankPPR filters the walk's final frontier, zeroing cur as it reads it,
// and returns the top-k with display names resolved for the survivors
// only.
func (x *Expander) rankPPR(ps *pprScratch, live, restart []rdf.TermID, k int) []Ranked {
	ps.types = ps.types[:0]
	if x.opts.SameTypeOnly {
		for _, s := range restart {
			if t := x.g.PrimaryType(s); t != rdf.NoTerm && !slices.Contains(ps.types, t) {
				ps.types = append(ps.types, t)
			}
		}
	}
	ps.ranked = ps.ranked[:0]
	for _, e := range live {
		v := ps.cur[e]
		ps.cur[e] = 0
		if !x.opts.IncludeSeeds {
			if _, seed := slices.BinarySearch(restart, e); seed {
				continue
			}
		}
		if !x.g.IsEntity(e) {
			continue
		}
		if x.opts.SameTypeOnly && !slices.Contains(ps.types, x.g.PrimaryType(e)) {
			continue
		}
		if x.opts.Owned != nil && !x.opts.Owned(e) {
			continue
		}
		ps.ranked = append(ps.ranked, Ranked{Entity: e, Score: v})
	}
	n := len(ps.ranked)
	out := topk.Select(ps.ranked, k, lessRanked)
	if k <= 0 || k >= n {
		// Select sorted in place and returned the scratch buffer: copy
		// out so the result survives scratch reuse.
		out = append(make([]Ranked, 0, n), out...)
	}
	for i := range out {
		out[i].Name = x.g.Name(out[i].Entity)
	}
	return out
}
