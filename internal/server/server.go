package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/obs"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
)

// Server serves one PivotE session over HTTP.
//
// Concurrency model: each generation's graph, search index and feature
// cache are immutable or internally synchronized, so read-only handlers
// (state, heat map, path renderings, suggest, explain, session download)
// evaluate concurrently under a read lock. Only handlers that mutate the
// session timeline (ops, profile lookup, session load) serialize behind
// the write lock. Live ingest never takes the session lock at all — it
// goes straight to the shared generational store, which synchronizes
// writers itself.
type Server struct {
	mu  sync.RWMutex
	eng *core.Engine
}

// graph resolves the current generation's graph. It is re-read per use
// rather than cached at construction so that entities ingested after a
// compaction swap resolve immediately.
func (s *Server) graph() *kg.Graph { return s.eng.Graph() }

// New wraps a fresh engine over the graph.
func New(g *kg.Graph, opts core.Options) *Server {
	return &Server{eng: core.New(g, opts)}
}

// NewWithShared wraps a fresh session engine over a shared read core —
// the multi-session configuration, where building the search index per
// session would be prohibitive.
func NewWithShared(sh *core.Shared, opts core.Options) *Server {
	return &Server{eng: core.NewWithShared(sh, opts)}
}

// Handler returns the HTTP handler: the versioned operation protocol and
// its read-only renderings under /api/v1/, the observability surface
// (/metrics, /api/v1/stats, /api/v1/debug/slow), and the embedded UI at
// /. Every API route is wrapped in the obs middleware: a per-route
// latency histogram + status-class counter, a pooled stage Recorder on
// the request context, and slow-query capture. Every handler reports
// errors in the typed v1 envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Instrument(obs.Default, obs.SlowQueries, pattern, h))
	}
	mux.HandleFunc("GET /{$}", s.handleUI)
	handle("POST /api/v1/ops", s.handleV1Ops)
	handle("GET /api/v1/state", s.handleV1State)
	handle("GET /api/v1/session", s.handleV1SessionSave)
	handle("POST /api/v1/session", s.handleV1SessionLoad)
	handle("GET /api/v1/profile", s.handleProfile)
	handle("GET /api/v1/heatmap.svg", s.handleHeatmapSVG)
	handle("GET /api/v1/path.svg", s.handlePathSVG)
	handle("GET /api/v1/path.dot", s.handlePathDOT)
	handle("GET /api/v1/suggest", s.handleSuggest)
	handle("GET /api/v1/explain", s.handleExplain)
	handle("POST /api/v1/ingest", s.handleV1Ingest)
	handle("POST /api/v1/compact", s.handleV1Compact)
	handle("GET /api/v1/snapshot", s.handleV1Snapshot)
	handle("POST /api/v1/adopt", s.handleV1Adopt)
	handle("GET /api/v1/live", s.handleV1LiveStats)
	obs.MetricsRoutes(mux, obs.Default, obs.SlowQueries)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteJSON writes a response exactly the way every handler in this
// package does (same encoder, same Content-Type, same trailing newline).
// The scatter-gather router serves merged responses through it so a
// router response is byte-identical to a direct one.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	writeJSON(w, status, v)
}

// WriteV1Error writes the typed /api/v1 error envelope with the status
// derived from the error's kind — the exported twin of the v1 handlers'
// own error path, for the router.
func WriteV1Error(w http.ResponseWriter, err error, opIndex *int) {
	writeV1Err(w, err, opIndex)
}

// resultGraph picks the graph to render a result with: the result's own
// pinned generation when it has one, the current generation otherwise.
// A compaction swap between evaluation and serialization must not mix
// generations in one response.
func resultGraph(s *Server, res *core.Result) *kg.Graph {
	if g := res.Graph(); g != nil {
		return g
	}
	return s.graph()
}

func (s *Server) handleUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

// entityParam resolves an entity given by numeric id (preferred) or by
// name/IRI against one graph: a malformed or missing parameter is
// KindInvalid, a well-formed reference to no entity KindNotFound.
func entityParam(g *kg.Graph, idStr, name string) (rdf.TermID, error) {
	switch {
	case idStr != "":
		n, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return rdf.NoTerm, core.Errf(core.KindInvalid, "bad entity id %q", idStr)
		}
		if !g.IsEntity(rdf.TermID(n)) {
			return rdf.NoTerm, core.Errf(core.KindNotFound, "id %d is not an entity", n)
		}
		return rdf.TermID(n), nil
	case name != "":
		if id := g.EntityByName(name); id != rdf.NoTerm {
			return id, nil
		}
		return rdf.NoTerm, core.Errf(core.KindNotFound, "unknown entity %q", name)
	}
	return rdf.NoTerm, core.Errf(core.KindInvalid, "need id or name")
}

// handleProfile serves an entity profile (Fig. 3-d) for ?id= or ?name=
// and records the view on the timeline as a lookup op.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := entityParam(s.graph(), q.Get("id"), q.Get("name"))
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	s.mu.Lock()
	p, err := s.eng.LookupCtx(r.Context(), id)
	s.mu.Unlock()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, toProfileDTO(p))
}

// emptySVG is the minimal valid document served when no heat map
// exists yet: an empty body is not well-formed SVG and breaks strict
// <img> consumers.
const emptySVG = `<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1"/>` + "\n"

func (s *Server) handleHeatmapSVG(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	// Field selection: only the heat map is needed, so entities and
	// features are computed but never copied and the timeline is skipped.
	res, err := s.eng.EvaluateCtx(r.Context(), core.FieldHeatmap)
	s.mu.RUnlock()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	if res.Heat == nil || len(res.Heat.Features) == 0 {
		_, _ = w.Write([]byte(emptySVG))
		return
	}
	_, _ = w.Write([]byte(res.Heat.SVG()))
}

func (s *Server) handlePathSVG(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	svg := s.eng.Session().PathSVG()
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(svg))
}

func (s *Server) handlePathDOT(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	dot := s.eng.Session().PathDOT()
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(dot))
}

// handleExplain answers "why does this entity correlate with this
// feature?" — the §3.2 explanation ("both performed by Tom Hanks and
// Gary Sinise"). Query params: entity id, feature label.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// One graph capture for the whole request: validation, probability
	// and name rendering must agree on a single generation.
	g := s.graph()
	id, err := entityParam(g, r.URL.Query().Get("entity"), "")
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	label := r.URL.Query().Get("feature")
	f, err := semfeat.Parse(g, label)
	if err != nil {
		writeV1Err(w, &core.Error{Kind: core.KindInvalid, Msg: err.Error(), Err: err}, nil)
		return
	}
	s.mu.RLock()
	fe := s.eng.Features()
	prob := fe.Prob(f, id)
	holds := fe.Holds(id, f)
	s.mu.RUnlock()
	explanation := ""
	switch {
	case holds:
		explanation = g.Name(id) + " matches " + label
	case prob > 0:
		explanation = g.Name(id) + " is related to " + label + " through its category"
	default:
		explanation = g.Name(id) + " has no correlation with " + label
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"entity":      g.Name(id),
		"feature":     label,
		"holds":       holds,
		"probability": prob,
		"explanation": explanation,
	})
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeJSON(w, http.StatusOK, []EntityDTO{})
		return
	}
	s.mu.RLock()
	hits, err := s.eng.Searcher().SearchCtx(r.Context(), q, 10, search.ModelMLM)
	s.mu.RUnlock()
	if err != nil {
		writeV1Err(w, err, nil)
		return
	}
	out := make([]EntityDTO, 0, len(hits))
	for _, h := range hits {
		out = append(out, EntityDTO{ID: uint32(h.Entity), Name: h.Name, Score: h.Score})
	}
	writeJSON(w, http.StatusOK, out)
}
