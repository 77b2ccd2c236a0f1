package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

// doV1 issues a request with a JSON string body (GET when body == "").
func doV1(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeV1Err(t *testing.T, raw []byte) V1Error {
	t.Helper()
	var env V1ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not a typed envelope: %v\n%s", err, raw)
	}
	if env.Error.Kind == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing kind/message: %s", raw)
	}
	return env.Error
}

// TestV1EndpointErrors is the table-driven status-code + envelope sweep
// over the whole v1 surface.
func TestV1EndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name    string
		method  string
		path    string
		body    string
		status  int
		kind    core.ErrKind
		opIndex *int
	}{
		{"ops: bad json", "POST", "/api/v1/ops", `{bad`, 400, core.KindInvalid, nil},
		{"ops: unknown op kind", "POST", "/api/v1/ops",
			`{"ops":[{"op":"explode"}]}`, 400, core.KindInvalid, intp(0)},
		{"ops: unknown entity", "POST", "/api/v1/ops",
			`{"ops":[{"op":"submit","keywords":"x"},{"op":"add-entity","entity":"Zzz_Nope"}]}`,
			404, core.KindNotFound, intp(1)},
		{"ops: bad entity id", "POST", "/api/v1/ops",
			`{"ops":[{"op":"pivot","entityId":999999}]}`, 404, core.KindNotFound, intp(0)},
		{"ops: bad feature", "POST", "/api/v1/ops",
			`{"ops":[{"op":"add-feature","feature":"garbage"}]}`, 400, core.KindInvalid, intp(0)},
		{"ops: bad revisit step", "POST", "/api/v1/ops",
			`{"ops":[{"op":"revisit","step":99}]}`, 400, core.KindInvalid, intp(0)},
		{"ops: bad include", "POST", "/api/v1/ops",
			`{"ops":[],"include":"entities,bogus"}`, 400, core.KindInvalid, nil},
		{"state: bad include", "GET", "/api/v1/state?include=bogus", "", 400, core.KindInvalid, nil},
		{"session: bad json", "POST", "/api/v1/session", `{bad`, 400, core.KindInvalid, nil},
		{"session: bad version", "POST", "/api/v1/session", `{"version":9}`, 400, core.KindInvalid, nil},
		// Session replay mirrors the ops endpoint: op-scoped failures
		// carry the offending op's index, so a router repairing a shard
		// through this endpoint serves indistinguishable envelopes.
		{"session: unknown entity", "POST", "/api/v1/session",
			`{"version":2,"ops":[{"op":"add-entity","entity":"Zzz_Nope"}]}`, 404, core.KindNotFound, intp(0)},
		{"session: bad include", "POST", "/api/v1/session?include=bogus",
			`{"version":2,"ops":[]}`, 400, core.KindInvalid, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := doV1(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			e := decodeV1Err(t, raw)
			if e.Kind != tc.kind {
				t.Fatalf("kind = %s, want %s", e.Kind, tc.kind)
			}
			switch {
			case tc.opIndex == nil && e.OpIndex != nil:
				t.Fatalf("unexpected opIndex %d", *e.OpIndex)
			case tc.opIndex != nil && (e.OpIndex == nil || *e.OpIndex != *tc.opIndex):
				t.Fatalf("opIndex = %v, want %d", e.OpIndex, *tc.opIndex)
			}
		})
	}
}

func intp(i int) *int { return &i }

// TestV1OpsSuccess covers the happy path of every op kind in one batch.
func TestV1OpsSuccess(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"ops":[
		{"op":"submit","keywords":"forrest gump"},
		{"op":"add-entity","entity":"Forrest_Gump"},
		{"op":"add-feature","feature":"Tom_Hanks:starring"},
		{"op":"remove-feature","feature":"Tom_Hanks:starring"},
		{"op":"lookup","entity":"Apollo_13"},
		{"op":"pivot","entity":"Tom_Hanks"},
		{"op":"remove-entity","entity":"Tom_Hanks"},
		{"op":"revisit","step":2}
	]}`
	resp, raw := doV1(t, "POST", ts.URL+"/api/v1/ops", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out OpsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Applied != 8 {
		t.Fatalf("applied = %d, want 8", out.Applied)
	}
	if len(out.State.Timeline) != 8 {
		t.Fatalf("timeline = %d actions, want 8", len(out.State.Timeline))
	}
	if !strings.Contains(out.State.Description, "Forrest Gump") {
		t.Fatalf("description = %q", out.State.Description)
	}
	if len(out.State.Entities) == 0 || out.State.Heat == nil {
		t.Fatal("full include did not assemble entities + heat map")
	}
}

// TestV1BatchEquivalence replays a session op log as one batch and
// asserts the final v1 state is byte-identical to the state reached by
// posting the same ops one per request.
func TestV1BatchEquivalence(t *testing.T) {
	seqTS, _ := newTestServer(t)
	batchTS, _ := newTestServer(t)

	// Drive one server op by op, one single-op batch per request.
	for _, op := range []string{
		`{"op":"submit","keywords":"forrest gump"}`,
		`{"op":"add-entity","entity":"Forrest_Gump"}`,
		`{"op":"add-feature","feature":"Tom_Hanks:starring"}`,
		`{"op":"pivot","entity":"Tom_Hanks"}`,
		`{"op":"revisit","step":2}`,
	} {
		if resp, raw := doV1(t, "POST", seqTS.URL+"/api/v1/ops", `{"ops":[`+op+`]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", op, resp.StatusCode, raw)
		}
	}

	// The same ops as one atomic batch (one lock acquisition, one
	// evaluation) on a fresh server.
	resp, raw := doV1(t, "POST", batchTS.URL+"/api/v1/ops", `{"ops":[
		{"op":"submit","keywords":"forrest gump"},
		{"op":"add-entity","entity":"Forrest_Gump"},
		{"op":"add-feature","feature":"Tom_Hanks:starring"},
		{"op":"pivot","entity":"Tom_Hanks"},
		{"op":"revisit","step":2}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}

	_, seqState := doV1(t, "GET", seqTS.URL+"/api/v1/state", "")
	_, batchState := doV1(t, "GET", batchTS.URL+"/api/v1/state", "")
	if !bytes.Equal(seqState, batchState) {
		t.Fatalf("batched replay diverged from sequential single-op posts:\nseq:   %s\nbatch: %s",
			seqState, batchState)
	}

	// The op logs are byte-identical too: a session file saved from
	// either server replays on the other.
	_, seqLog := doV1(t, "GET", seqTS.URL+"/api/v1/session", "")
	_, batchLog := doV1(t, "GET", batchTS.URL+"/api/v1/session", "")
	if !bytes.Equal(seqLog, batchLog) {
		t.Fatalf("op logs differ:\nseq:   %s\nbatch: %s", seqLog, batchLog)
	}
}

// TestV1BatchAtomicRollback: a failing op voids the whole batch.
func TestV1BatchAtomicRollback(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, raw := doV1(t, "POST", ts.URL+"/api/v1/ops", `{"ops":[
		{"op":"submit","keywords":"forrest gump"},
		{"op":"revisit","step":77}
	]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	e := decodeV1Err(t, raw)
	if e.OpIndex == nil || *e.OpIndex != 1 {
		t.Fatalf("opIndex = %v, want 1", e.OpIndex)
	}
	// Nothing applied: state is still the empty query.
	_, raw = doV1(t, "GET", ts.URL+"/api/v1/state?include=timeline", "")
	var st StateV1DTO
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Description != "(empty query)" || len(st.Timeline) != 0 {
		t.Fatalf("failed batch left state behind: %s", raw)
	}
}

// TestV1IncludeSkipsHeatmap: the acceptance criterion that
// ?include=entities demonstrably skips heat-map construction.
func TestV1IncludeSkipsHeatmap(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, raw := doV1(t, "POST", ts.URL+"/api/v1/ops",
		`{"ops":[{"op":"submit","keywords":"forrest gump"},{"op":"add-entity","entity":"Forrest_Gump"}],"include":"entities"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out OpsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.State.Entities) == 0 {
		t.Fatal("no entities")
	}
	if out.State.Heat != nil || out.State.Features != nil || out.State.Timeline != nil {
		t.Fatal("include=entities assembled unrequested areas")
	}
	if bytes.Contains(raw, []byte(`"heat"`)) || bytes.Contains(raw, []byte(`"features"`)) {
		t.Fatalf("payload carries unrequested keys: %s", raw)
	}

	// The same query via GET with explicit selections.
	_, entOnly := doV1(t, "GET", ts.URL+"/api/v1/state?include=entities", "")
	if bytes.Contains(entOnly, []byte(`"heat"`)) {
		t.Fatalf("state include=entities built a heat map: %s", entOnly)
	}
	_, withHeat := doV1(t, "GET", ts.URL+"/api/v1/state?include=entities,heatmap", "")
	if !bytes.Contains(withHeat, []byte(`"heat"`)) {
		t.Fatal("state include=heatmap did not build the heat map")
	}
}

// TestV1SessionRoundTrip: GET /api/v1/session is a replayable op log
// accepted verbatim by POST /api/v1/session on a fresh server.
func TestV1SessionRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	doV1(t, "POST", ts.URL+"/api/v1/ops",
		`{"ops":[{"op":"submit","keywords":"forrest gump"},{"op":"add-entity","entity":"Forrest_Gump"}]}`)
	resp, log := doV1(t, "GET", ts.URL+"/api/v1/session", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(log, []byte(`"version": 2`)) {
		t.Fatalf("session download = %d: %s", resp.StatusCode, log)
	}

	ts2, _ := newTestServer(t)
	resp, raw := doV1(t, "POST", ts2.URL+"/api/v1/session", string(log))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session load = %d: %s", resp.StatusCode, raw)
	}
	var st StateV1DTO
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Description, "Forrest Gump") || len(st.Timeline) != 2 {
		t.Fatalf("replayed state = %s", raw)
	}
}

// TestHeatmapSVGBothBranches covers the empty and populated heat-map
// renderings: an empty session must still serve a valid SVG document.
func TestHeatmapSVGBothBranches(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, raw := doV1(t, "GET", ts.URL+"/api/v1/heatmap.svg", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-branch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(raw), "<svg") || !strings.Contains(string(raw), "xmlns") {
		t.Fatalf("empty branch is not a valid SVG document: %q", raw)
	}

	doV1(t, "POST", ts.URL+"/api/v1/ops", `{"ops":[{"op":"add-entity","entity":"Forrest_Gump"}]}`)
	resp, full := doV1(t, "GET", ts.URL+"/api/v1/heatmap.svg", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(full), "<svg") {
		t.Fatalf("populated branch = %d: %.80s", resp.StatusCode, full)
	}
	if len(full) <= len(raw) {
		t.Fatal("populated heat map not larger than the empty placeholder")
	}
}

// TestMultiLRUTouch: an active session survives eviction pressure that
// removes an idle one (the O(1) recency list must actually track use).
func TestMultiLRUTouch(t *testing.T) {
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{TopEntities: 5, TopFeatures: 5}, 2)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	alice := clientWithJar(t)
	bob := clientWithJar(t)
	postQuery(t, alice, ts.URL, "gump")
	postQuery(t, bob, ts.URL, "apollo")

	// Touch alice so bob becomes least-recently-used, then let carol
	// force an eviction.
	getState(t, alice, ts.URL)
	carol := clientWithJar(t)
	postQuery(t, carol, ts.URL, "hanks")

	if got := m.SessionCount(); got != 2 {
		t.Fatalf("sessions = %d, want 2", got)
	}
	// Alice kept her session (timeline intact)...
	if st := getState(t, alice, ts.URL); len(st.Timeline) != 1 {
		t.Fatalf("alice evicted: timeline = %d", len(st.Timeline))
	}
	// ...while bob was evicted and restarts fresh.
	if st := getState(t, bob, ts.URL); len(st.Timeline) != 0 {
		t.Fatalf("bob not evicted: timeline = %d", len(st.Timeline))
	}
}
