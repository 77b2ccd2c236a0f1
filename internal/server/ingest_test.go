package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

// newLiveServer builds a Multi over a live-enabled shared core — the
// -live deployment shape — so the test exercises the same session-cookie
// routing real ingest traffic takes.
func newLiveServer(t *testing.T) (*httptest.Server, *core.Shared, *kgtest.Fixture) {
	t.Helper()
	f := kgtest.Build()
	opts := core.Options{TopEntities: 10, TopFeatures: 8}
	sh := core.NewLiveShared(f.Graph, opts)
	m := NewMultiShared(sh, opts, 8)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = sh.Close()
	})
	return ts, sh, f
}

func decodeIngest(t *testing.T, resp *http.Response) IngestResponse {
	t.Helper()
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return out
}

// TestIngestEndToEnd: a JSON batch with compact:true becomes searchable
// immediately — read-your-writes through a forced swap.
func TestIngestEndToEnd(t *testing.T) {
	ts, sh, _ := newLiveServer(t)

	nt := `<http://pivote.dev/resource/Ingested_Film> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/ontology/Film> .
<http://pivote.dev/resource/Ingested_Film> <http://www.w3.org/2000/01/rdf-schema#label> "Zanzibar Mystery Film" .
<http://pivote.dev/resource/Ingested_Film> <http://pivote.dev/ontology/starring> <http://pivote.dev/resource/Tom_Hanks> .
`
	resp := postJSON(t, ts.URL+"/api/v1/ingest", map[string]interface{}{
		"add":     nt,
		"compact": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	out := decodeIngest(t, resp)
	if out.Added != 3 || !out.Compacted || out.Generation == 0 || out.Pending != 0 {
		t.Fatalf("unexpected ingest response %+v", out)
	}

	// The new entity resolves by name and is searchable.
	if id := sh.Graph().EntityByName("Ingested_Film"); id == 0 {
		t.Fatal("ingested entity not in the new generation's universe")
	}
	sresp, err := http.Get(ts.URL + "/api/v1/suggest?q=zanzibar+mystery")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var hits []EntityDTO
	if err := json.NewDecoder(sresp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Name != "Zanzibar Mystery Film" {
		t.Fatalf("search did not surface the ingested entity: %+v", hits)
	}
}

// TestIngestRawBody: a non-JSON body is treated as an N-Triples add
// batch (the curl-friendly path), staying pending until a compaction.
func TestIngestRawBody(t *testing.T) {
	ts, sh, _ := newLiveServer(t)
	nt := `<http://pivote.dev/resource/Raw_Film> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/ontology/Film> .`
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw ingest status %d", resp.StatusCode)
	}
	out := decodeIngest(t, resp)
	if out.Added != 1 || out.Pending != 1 || out.Compacted {
		t.Fatalf("unexpected raw ingest response %+v", out)
	}

	// Force the swap over the API and confirm visibility.
	cresp, err := http.Post(ts.URL+"/api/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cout := decodeIngest(t, cresp)
	if !cout.Compacted || cout.Pending != 0 {
		t.Fatalf("unexpected compact response %+v", cout)
	}
	if id := sh.Graph().EntityByName("Raw_Film"); id == 0 {
		t.Fatal("raw-ingested entity missing after compaction")
	}
}

// TestIngestRemove: tombstones delivered over the API take effect.
func TestIngestRemove(t *testing.T) {
	ts, sh, f := newLiveServer(t)
	drop := `<http://pivote.dev/resource/Apollo_13> <http://pivote.dev/ontology/starring> <http://pivote.dev/resource/Kevin_Bacon> .`
	resp := postJSON(t, ts.URL+"/api/v1/ingest", map[string]interface{}{
		"remove":  drop,
		"compact": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status %d", resp.StatusCode)
	}
	out := decodeIngest(t, resp)
	if out.Removed != 1 {
		t.Fatalf("unexpected remove response %+v", out)
	}
	st := sh.Graph().Store()
	starring := st.Dict().LookupIRI("http://pivote.dev/ontology/starring")
	if st.Has(f.E("Apollo_13"), starring, f.E("Kevin_Bacon")) {
		t.Fatal("tombstoned triple still present after swap")
	}
}

// TestIngestErrors: malformed batches and disabled ingest produce the
// typed envelope and leave the server fully operational.
func TestIngestErrors(t *testing.T) {
	ts, _, _ := newLiveServer(t)

	// Malformed N-Triples: typed invalid, nothing applied.
	resp := postJSON(t, ts.URL+"/api/v1/ingest", map[string]interface{}{"add": "<a> nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch status %d, want 400", resp.StatusCode)
	}
	var env V1ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Error.Kind != core.KindInvalid {
		t.Fatalf("kind %q, want invalid", env.Error.Kind)
	}

	// The server still answers reads afterwards — a bad batch cannot
	// take it down.
	if sresp, err := http.Get(ts.URL + "/api/v1/state"); err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("state after bad batch: %v / %v", err, sresp)
	}

	// Static deployment: ingest is a typed invalid error.
	staticTS, _ := newTestServer(t)
	resp = postJSON(t, staticTS.URL+"/api/v1/ingest", map[string]interface{}{"add": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("disabled ingest status %d, want 400", resp.StatusCode)
	}
	var env2 V1ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(env2.Error.Message, "-live") {
		t.Fatalf("disabled message should point at -live: %q", env2.Error.Message)
	}
}

// TestLiveStats: the observability endpoint reports generation, pending
// and cache-carry numbers.
func TestLiveStats(t *testing.T) {
	ts, _, _ := newLiveServer(t)
	nt := `<http://pivote.dev/resource/Stats_Film> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/ontology/Film> .`
	postJSON(t, ts.URL+"/api/v1/ingest", map[string]interface{}{"add": nt}).Body.Close()

	resp, err := http.Get(ts.URL + "/api/v1/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats LiveStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || stats.Pending != 1 || stats.Generation != 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}
	if stats.Triples == 0 || stats.Entities == 0 {
		t.Fatalf("stats missing graph sizes: %+v", stats)
	}
	if stats.CatalogFeatures == 0 {
		t.Fatalf("stats missing the catalog feature count: %+v", stats)
	}
}
