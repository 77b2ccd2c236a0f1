package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"pivote/internal/core"
	"pivote/internal/live"
	"pivote/internal/obs"
)

// The live-ingest surface of /api/v1:
//
//	POST /api/v1/ingest   append a batch of adds/tombstones to the write log
//	POST /api/v1/compact  force a compaction swap and wait for it
//	GET  /api/v1/live     generation / pending / cache-carry statistics
//
// Ingest is graph-global (every session reads the same generational
// store), requires the server to run in live mode (-live), and never
// blocks readers: the batch lands in the write log, a new view counting
// it is published atomically, and visibility in reads arrives with the
// next compaction swap. Errors use the same typed envelope as the
// op protocol; a malformed batch is rejected in full with no side
// effects, so a bad client cannot crash or corrupt the server.

// ingestRequest is the POST /api/v1/ingest body. A raw (non-JSON)
// request body is also accepted and treated as Add.
type ingestRequest struct {
	// Add and Remove are N-Triples batches.
	Add    string `json:"add,omitempty"`
	Remove string `json:"remove,omitempty"`
	// Compact forces a synchronous compaction after the batch: the
	// response's generation then already includes it (read-your-writes).
	Compact bool `json:"compact,omitempty"`
}

// IngestResponse reports the batch outcome.
type IngestResponse struct {
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
	Pending    int    `json:"pending"`
	Generation uint64 `json:"generation"`
	Compacted  bool   `json:"compacted,omitempty"`
}

// LiveStats is the GET /api/v1/live body.
type LiveStats struct {
	Enabled    bool   `json:"enabled"`
	Generation uint64 `json:"generation"`
	Pending    int    `json:"pending"`
	Swaps      uint64 `json:"swaps"`
	// Adoptions counts the swaps that adopted a replicated snapshot
	// instead of compacting locally (zero on unreplicated nodes).
	Adoptions uint64 `json:"adoptions,omitempty"`
	Triples   int    `json:"triples"`
	Entities  int    `json:"entities"`
	// CatalogFeatures is the size of the current generation's dense
	// FeatureID space — the frozen semantic-feature catalog.
	CatalogFeatures int `json:"catalogFeatures"`
	// CacheCarried / CacheDropped report how the current generation's
	// feature state was seeded from its predecessor (FeatureID-granular
	// when a catalog is present).
	CacheCarried int `json:"cacheCarried"`
	CacheDropped int `json:"cacheDropped"`
	// UptimeSeconds, GoVersion and Revision identify the serving
	// process: how long it has been up and exactly what it is running
	// (toolchain + VCS revision from the build stamp, empty when the
	// binary carries none).
	UptimeSeconds float64 `json:"uptimeSeconds"`
	GoVersion     string  `json:"goVersion,omitempty"`
	Revision      string  `json:"revision,omitempty"`
}

// liveStore returns the generational store when ingest is enabled, or a
// typed invalid error for static deployments.
func (s *Server) liveStore() (*live.Store, error) {
	sh := s.eng.Shared()
	if !sh.IngestEnabled() {
		return nil, core.Errf(core.KindInvalid, "live ingest is disabled; start the server with -live")
	}
	return sh.Live(), nil
}

func (s *Server) handleV1Ingest(w http.ResponseWriter, r *http.Request) {
	ls, err := s.liveStore()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	var req ingestRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeV1Err(w, core.Errf(core.KindInvalid, "bad request body: %v", err), nil)
			return
		}
	} else {
		// Raw N-Triples body: the curl-friendly spelling of {"add": ...}.
		raw, err := io.ReadAll(body)
		if err != nil {
			writeV1Err(w, core.Errf(core.KindInvalid, "read body: %v", err), nil)
			return
		}
		req.Add = string(raw)
	}

	var add, del io.Reader
	if req.Add != "" {
		add = strings.NewReader(req.Add)
	}
	if req.Remove != "" {
		del = strings.NewReader(req.Remove)
	}
	res, err := ls.IngestNTriples(add, del)
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	resp := IngestResponse{
		Added:      res.Added,
		Removed:    res.Removed,
		Pending:    res.Pending,
		Generation: res.Generation,
	}
	if req.Compact {
		gen, swapped, err := ls.CompactNow()
		if err != nil {
			writeV1Err(w, err, nil)
			return
		}
		resp.Generation = gen.ID
		resp.Pending = ls.Pending()
		resp.Compacted = swapped
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1Compact(w http.ResponseWriter, r *http.Request) {
	ls, err := s.liveStore()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	gen, swapped, err := ls.CompactNow()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Generation: gen.ID,
		Pending:    ls.Pending(),
		Compacted:  swapped,
	})
}

func (s *Server) handleV1LiveStats(w http.ResponseWriter, r *http.Request) {
	sh := s.eng.Shared()
	v := sh.Live().View()
	carry := v.Gen.Features.Carry()
	nFeatures := 0
	if v.Gen.Catalog != nil {
		nFeatures = v.Gen.Catalog.NumFeatures()
	}
	goVer, rev := obs.BuildInfo()
	writeJSON(w, http.StatusOK, LiveStats{
		Enabled:         sh.IngestEnabled(),
		Generation:      v.Gen.ID,
		Pending:         v.Pending(),
		Swaps:           sh.Live().Swaps(),
		Adoptions:       sh.Live().Adoptions(),
		Triples:         v.Len(),
		Entities:        len(v.Gen.Graph.Entities()),
		CatalogFeatures: nFeatures,
		CacheCarried:    carry.Carried,
		CacheDropped:    carry.Dropped,
		UptimeSeconds:   obs.Uptime().Seconds(),
		GoVersion:       goVer,
		Revision:        rev,
	})
}
