package core

import (
	"time"

	"pivote/internal/obs"
)

// Process-wide engine metrics. Registered once; every Engine in the
// process (all shards, all replicas of an in-process cluster) shares
// them, which is exactly what a per-process /metrics scrape wants.
var (
	stageHist       [obs.NumStages]*obs.Histogram
	opSeconds       map[OpKind]*obs.Histogram
	opsTotal        map[OpKind]*obs.Counter
	opBatchSeconds  *obs.Histogram
	opErrorsTotal   *obs.Counter
	evalCacheHits   *obs.Counter
	evalCacheMisses *obs.Counter
)

func init() {
	// Heatmap is the last engine-side stage; scatter belongs to the
	// shard router and is recorded there.
	for s := obs.StageSearch; s <= obs.StageHeatmap; s++ {
		stageHist[s] = obs.Default.Histogram("pivote_engine_stage_seconds",
			"Engine evaluation time by stage.", obs.L("stage", s.String()))
	}
	kinds := []OpKind{
		OpKindSubmit, OpKindAddSeed, OpKindRemoveSeed,
		OpKindAddFeature, OpKindRemoveFeature,
		OpKindLookup, OpKindPivot, OpKindRevisit,
	}
	opSeconds = make(map[OpKind]*obs.Histogram, len(kinds))
	opsTotal = make(map[OpKind]*obs.Counter, len(kinds))
	for _, k := range kinds {
		opSeconds[k] = obs.Default.Histogram("pivote_op_seconds",
			"Apply latency (session mutation + evaluation) by op kind.",
			obs.L("kind", string(k)))
		opsTotal[k] = obs.Default.Counter("pivote_ops_total",
			"Operations applied by kind.", obs.L("kind", string(k)))
	}
	opBatchSeconds = obs.Default.Histogram("pivote_op_seconds",
		"Apply latency (session mutation + evaluation) by op kind.",
		obs.L("kind", "batch"))
	opErrorsTotal = obs.Default.Counter("pivote_op_errors_total",
		"Operations rejected (validation, cancellation, evaluation failure).")
	evalCacheHits = obs.Default.Counter("pivote_eval_cache_total",
		"State evaluations served from the memoized last result.", obs.L("result", "hit"))
	evalCacheMisses = obs.Default.Counter("pivote_eval_cache_total",
		"State evaluations served from the memoized last result.", obs.L("result", "miss"))
}

// stageStart returns the stage clock, or the zero Time when
// instrumentation is off — stageEnd treats zero as "skip", so the
// disabled path costs one atomic load and two branches.
func stageStart() time.Time {
	if !obs.On() {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd records the elapsed stage time into the process histogram
// and the request's Recorder (nil-safe).
func stageEnd(rec *obs.Recorder, s obs.Stage, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	stageHist[s].Observe(d)
	rec.Add(s, d)
}
