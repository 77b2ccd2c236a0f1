package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"pivote/internal/server"
)

// Single-flight coalescing for generation-agreement re-reads.
//
// When a compaction swap is propagating, every session reading through
// the router hits the same mixed-generation condition at the same time,
// and each used to sleep-and-refan independently — N sessions, N
// identical probe storms against the cluster. Generation agreement is a
// CLUSTER property, not a session property, so one wait serves everyone:
// the first session in runs one probe round (one /api/v1/live per
// shard), the rest block on its completion and then re-fan. Correctness
// never rests on the probe — sameGeneration over the actual re-read
// responses remains the authority — the flight only decides how long to
// wait before trying again.

// flightGroup is a minimal single-flight: concurrent Do calls with the
// same key share one execution of fn.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
}

// Do runs fn once per in-flight key; duplicate callers wait for the
// leader and are counted as coalesced.
func (g *flightGroup) Do(key string, fn func()) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		mGenCoalesced.Inc()
		<-c.done
		return
	}
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	fn()
}

// awaitAgreement blocks (briefly) until the shards look likely to agree
// on one generation again, coalesced across sessions. The leader probes
// one replica per shard for its current generation; if they already
// agree the wait ends immediately (the swap finished while we decoded),
// otherwise it backs off one jittered pause to let the adoption land.
func (rt *Router) awaitAgreement(ctx context.Context) {
	rt.genFlight.Do("generation", func() {
		if rt.probeAgreement(ctx) {
			return
		}
		rt.genPause(ctx)
	})
}

// probeAgreement reports whether every shard's first answering replica
// is currently on the same generation. Probe failures abstain rather
// than vote: a dead replica is the failover machinery's problem.
func (rt *Router) probeAgreement(ctx context.Context) bool {
	var (
		mu    sync.Mutex
		seen  uint64
		have  bool
		mixed bool
		wg    sync.WaitGroup
	)
	for k := range rt.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, _, err := rt.ctrlShard(ctx, k, http.MethodGet, "/api/v1/live", nil, "")
			if err != nil || resp.status != http.StatusOK {
				resp.free()
				return
			}
			var stats server.LiveStats
			decodeErr := json.Unmarshal(resp.body, &stats)
			resp.free()
			if decodeErr != nil {
				return
			}
			mu.Lock()
			if !have {
				seen, have = stats.Generation, true
			} else if stats.Generation != seen {
				mixed = true
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	return have && !mixed
}
