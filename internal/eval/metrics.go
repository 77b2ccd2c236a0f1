// Package eval provides the evaluation harness for the PivotE
// reproduction: standard IR metrics, deterministic workload generators
// that derive ground truth from the synthetic knowledge graph, and the
// experiment drivers that regenerate every table and figure listed in
// DESIGN.md (T1, F1–F4, E5–E10, A1–A4).
package eval

import (
	"math"

	"pivote/internal/rdf"
)

// AveragePrecision computes AP of a ranking against a binary relevance
// set: the mean of precision@i over the ranks i that hold a relevant
// item, normalized by the total number of relevant items. Empty relevance
// sets yield 0.
func AveragePrecision(ranking []rdf.TermID, relevant map[rdf.TermID]bool) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	sum := 0.0
	for i, e := range ranking {
		if relevant[e] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}

// PrecisionAt computes P@k. Rankings shorter than k are padded with
// misses (standard trec_eval behaviour).
func PrecisionAt(ranking []rdf.TermID, relevant map[rdf.TermID]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	for i, e := range ranking {
		if i >= k {
			break
		}
		if relevant[e] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// RecallAt computes R@k: the fraction of relevant items found in the top
// k.
func RecallAt(ranking []rdf.TermID, relevant map[rdf.TermID]bool, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	for i, e := range ranking {
		if i >= k {
			break
		}
		if relevant[e] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// NDCGAt computes nDCG@k with binary gains.
func NDCGAt(ranking []rdf.TermID, relevant map[rdf.TermID]bool, k int) float64 {
	if len(relevant) == 0 || k <= 0 {
		return 0
	}
	dcg := 0.0
	for i, e := range ranking {
		if i >= k {
			break
		}
		if relevant[e] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	ideal := 0.0
	n := len(relevant)
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		ideal += 1 / math.Log2(float64(i)+2)
	}
	if ideal == 0 {
		return 0
	}
	return dcg / ideal
}

// ReciprocalRank returns 1/rank of the first relevant item, 0 if none.
func ReciprocalRank(ranking []rdf.TermID, relevant map[rdf.TermID]bool) float64 {
	for i, e := range ranking {
		if relevant[e] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// Metrics aggregates per-query measurements into means.
type Metrics struct {
	MAP, P10, NDCG10, MRR, R50 float64
	Queries                    int
}

// Accumulate folds one query's ranking into the running sums.
func (m *Metrics) Accumulate(ranking []rdf.TermID, relevant map[rdf.TermID]bool) {
	m.MAP += AveragePrecision(ranking, relevant)
	m.P10 += PrecisionAt(ranking, relevant, 10)
	m.NDCG10 += NDCGAt(ranking, relevant, 10)
	m.MRR += ReciprocalRank(ranking, relevant)
	m.R50 += RecallAt(ranking, relevant, 50)
	m.Queries++
}

// Finalize divides the sums by the query count, returning means.
func (m Metrics) Finalize() Metrics {
	if m.Queries == 0 {
		return m
	}
	n := float64(m.Queries)
	return Metrics{
		MAP: m.MAP / n, P10: m.P10 / n, NDCG10: m.NDCG10 / n,
		MRR: m.MRR / n, R50: m.R50 / n, Queries: m.Queries,
	}
}

// Percentile returns the p-th percentile (0..100) of the sorted slice
// using nearest-rank; it panics on empty input.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("eval: percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
