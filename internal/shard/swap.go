package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"pivote/internal/errs"
	"pivote/internal/server"
)

// Rolling swaps: coordinated compaction across the whole cluster.
//
// Compaction is deterministic, so every clean replica WOULD reach the
// same generation on its own — but "would" is not a guarantee the
// router can serve on: a replica whose compact request was lost holds
// an older generation under an ID its peers have already reused for a
// newer one, and merging pages across that split produces output no
// single-process server could emit. Instead the snapshot FILE is the
// unit of replication. Every node holds the full graph and applies its
// partition at emission (the snapshot carries no shard section; each
// adopter re-applies its own), so ONE primary's snapshot serves every
// replica of every shard, and the router coordinates the swap in three
// steps:
//
//	prepare  one primary replica — any clean, admitting replica in the
//	         cluster — compacts (POST /api/v1/compact) and publishes
//	         the new generation: on disk as gen-<id>-s<k>.pvgen when
//	         the node snapshots, over the wire as GET /api/v1/snapshot
//	adopt    the router pushes the snapshot bytes into every other
//	         replica (POST /api/v1/adopt, ?force=1 for replicas marked
//	         dirty); each one RCU-swaps the generation in exactly like
//	         a local compaction, so its readers never block and its
//	         sessions survive
//	commit   the router records the generation in its committed
//	         counter; from here on a replica answering from an older
//	         generation is known-stale and is routed around, not served
//
// The protocol runs under ingestMu, so no ingest can land between the
// primary's compaction and the peers' adoptions — which is what makes
// wholesale adoption (it clears the peer's write log) sound. Because
// every clean replica ends up holding the same adopted bytes under the
// same ID, generation agreement across the cluster converges
// deterministically instead of probabilistically: after a committed
// swap, equal generation IDs imply identical stores.
//
// Failure semantics: a peer that cannot adopt is marked dirty and the
// swap still commits — one clean replica per shard at the committed
// generation keeps the shard serving, and the next swap force-resyncs
// the stragglers. Only two failures abort without commit: no clean
// primary could compact, or the primary compacted but its snapshot
// could not be fetched. Both come back as typed unavailable errors and
// dirty nobody; the client retries, and the retry re-publishes a (new)
// generation to the whole cluster, re-aligning any replica the aborted
// attempt left ahead.

// rollingSwap runs the cluster-wide swap and returns the primary's
// compact response (relayed to the client, byte-identical to a
// single-process compact since the report is deterministic).
func (rt *Router) rollingSwap(ctx context.Context) (*shardResp, error) {
	tTotal := shardStart()
	reqCtx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()

	// Prepare: the primary is the first clean, admitting replica in
	// health order, searching shard 0 first. Transport failures move on
	// to the next candidate; an HTTP error is the deterministic answer
	// and is relayed as-is.
	var resp *shardResp
	pk, pr := -1, -1
	var lastErr error
	allDirty := true
	tPrepare := shardStart()
search:
	for k := range rt.shards {
		order, _ := rt.replicaOrder(k, 0)
		if len(order) > 0 {
			allDirty = false
		}
		for _, r := range order {
			var err error
			resp, err = rt.ctrlReplica(ctx, reqCtx, k, r, http.MethodPost, "/api/v1/compact", nil, "", 1)
			if err != nil {
				if errs.KindOf(err) == errs.KindCanceled {
					return nil, err
				}
				lastErr = err
				continue
			}
			pk, pr = k, r
			break search
		}
	}
	if pk == -1 {
		if allDirty {
			return nil, errs.Errf(errs.KindUnavailable,
				"shard: all replicas diverged, no clean compaction source")
		}
		return nil, lastErr
	}
	if resp.status != http.StatusOK {
		return resp, nil
	}
	shardEnd(mSwapPhase["prepare"], tPrepare)
	var report server.IngestResponse
	if err := json.Unmarshal(resp.body, &report); err != nil {
		resp.free()
		return nil, errs.Errf(errs.KindInternal, "shard %d: bad compact response: %v", pk, err)
	}

	// Fetch the primary's generation snapshot. The store may have
	// background-compacted past the forced generation between the two
	// calls (threshold compaction is node-local); the snapshot's own
	// generation header is authoritative for what the cluster adopts.
	tFetch := shardStart()
	snap, err := rt.ctrlReplica(ctx, reqCtx, pk, pr, http.MethodGet, "/api/v1/snapshot", nil, "", 1)
	if err != nil || snap.status != http.StatusOK {
		// The primary compacted but will not hand over the bytes, so the
		// cluster cannot be brought to its generation. Abort WITHOUT
		// commit and without acking the compaction; the client's retry
		// re-runs the whole protocol (compaction of an empty delta is a
		// cheap no-op) and re-aligns the replica this attempt left ahead.
		if err == nil {
			err = errs.Errf(errs.KindUnavailable,
				"shard %d replica %d: snapshot fetch failed with status %d", pk, pr, snap.status)
		}
		snap.free()
		return nil, err
	}
	shardEnd(mSwapPhase["fetch"], tFetch)
	adoptGen := report.Generation
	if g, ok := snap.generation(); ok && g > adoptGen {
		adoptGen = g
	}

	// Adopt: push the snapshot into every other replica of every shard,
	// in parallel. Dirty replicas are forced (their local state is wrong
	// by definition); clean replicas already at the generation — from a
	// no-op compact, say — are skipped.
	tAdopt := shardStart()
	var wg sync.WaitGroup
	for k := range rt.shards {
		for r := range rt.shards[k] {
			if k == pk && r == pr {
				rt.health[k][r].observeGen(adoptGen)
				continue
			}
			h := rt.health[k][r]
			if !h.isDirty() && h.lastGen() == adoptGen {
				continue
			}
			wg.Add(1)
			go func(k, r int, h *replicaHealth) {
				defer wg.Done()
				pathq := "/api/v1/adopt"
				if h.isDirty() {
					pathq += "?force=1"
				}
				aresp, err := rt.ctrlReplica(ctx, reqCtx, k, r, http.MethodPost, pathq, snap.body, "application/octet-stream", 1)
				if err != nil {
					h.markDirty("missed generation adoption: " + err.Error())
					return
				}
				var ar server.AdoptResponse
				decodeErr := json.Unmarshal(aresp.body, &ar)
				bad := aresp.status != http.StatusOK || decodeErr != nil || ar.Generation != adoptGen
				aresp.free()
				if bad {
					h.markDirty("generation adoption rejected")
					return
				}
				// The replica now holds the exact published generation
				// bytes: whatever divergence it had is gone.
				h.clearDirty()
				h.observeGen(adoptGen)
			}(k, r, h)
		}
	}
	wg.Wait()
	snap.free() // adopters are done with the snapshot bytes
	shardEnd(mSwapPhase["adopt"], tAdopt)

	// Commit: record the generation. Replicas later observed below it
	// are known-stale and get routed around (see Router.stateful).
	rt.commitGen(adoptGen)
	shardEnd(mSwapPhase["total"], tTotal)
	return resp, nil
}

// handleCompact runs the cluster-wide rolling swap, serialized with
// ingest (and other swaps).
func (rt *Router) handleCompact(w http.ResponseWriter, r *http.Request) {
	rt.ingestMu.Lock()
	defer rt.ingestMu.Unlock()
	resp, err := rt.rollingSwap(r.Context())
	if err != nil {
		server.WriteV1Error(w, err, nil)
		return
	}
	relay(w, resp)
	resp.free()
}
