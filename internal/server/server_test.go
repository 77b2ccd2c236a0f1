package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

func newTestServer(t *testing.T) (*httptest.Server, *kgtest.Fixture) {
	t.Helper()
	f := kgtest.Build()
	srv := New(f.Graph, core.Options{TopEntities: 10, TopFeatures: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, f
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeOK decodes a 200 JSON body into v; any other status fails the
// test with the typed envelope's message.
func decodeOK(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		var env V1ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		t.Fatalf("status %d: %s", resp.StatusCode, env.Error.Message)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// postOps posts one /api/v1/ops batch and returns the state it produced.
func postOps(t *testing.T, baseURL string, ops ...core.OpDTO) StateV1DTO {
	t.Helper()
	var out OpsResponse
	decodeOK(t, postJSON(t, baseURL+"/api/v1/ops", map[string]interface{}{"ops": ops}), &out)
	return out.State
}

// expectV1Err asserts a failed response: its status and the kind of its
// typed envelope.
func expectV1Err(t *testing.T, resp *http.Response, status int, kind core.ErrKind) {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, status, raw)
	}
	if e := decodeV1Err(t, raw); e.Kind != kind {
		t.Fatalf("kind = %s, want %s", e.Kind, kind)
	}
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestUIServed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := getURL(t, ts.URL+"/")
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PivotE") || !strings.Contains(buf.String(), "/api/v1/ops") {
		t.Fatal("UI page malformed")
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	if len(st.Entities) == 0 || st.Entities[0].Name != "Forrest Gump" {
		t.Fatalf("entities = %+v", st.Entities)
	}
	if len(st.Timeline) != 1 {
		t.Fatalf("timeline = %+v", st.Timeline)
	}
	if st.Entities[0].Type != "Film" {
		t.Fatalf("type annotation = %q", st.Entities[0].Type)
	}
}

func TestEntityAddByNameAndID(t *testing.T) {
	ts, f := newTestServer(t)
	st := postOps(t, ts.URL, core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})
	if !strings.Contains(st.Description, "Forrest Gump") {
		t.Fatalf("description = %q", st.Description)
	}
	st = postOps(t, ts.URL, core.OpDTO{Op: "add-entity", EntityID: uint32(f.E("Apollo_13"))})
	if !strings.Contains(st.Description, "Apollo 13") {
		t.Fatalf("description = %q", st.Description)
	}
	if len(st.Entities) == 0 {
		t.Fatal("no recommendations after two seeds")
	}
}

func TestEntityAddErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	post := func(op core.OpDTO) *http.Response {
		return postJSON(t, ts.URL+"/api/v1/ops", map[string]interface{}{"ops": []core.OpDTO{op}})
	}
	expectV1Err(t, post(core.OpDTO{Op: "add-entity", Entity: "Nope_Nope"}), http.StatusNotFound, core.KindNotFound)
	expectV1Err(t, post(core.OpDTO{Op: "add-entity", EntityID: 999999}), http.StatusNotFound, core.KindNotFound)
	expectV1Err(t, post(core.OpDTO{Op: "add-entity"}), http.StatusBadRequest, core.KindInvalid)
}

func TestFeatureAddRemove(t *testing.T) {
	ts, _ := newTestServer(t)
	st := postOps(t, ts.URL, core.OpDTO{Op: "add-feature", Feature: "Tom_Hanks:starring"})
	if len(st.Entities) != 6 {
		t.Fatalf("Tom_Hanks:starring = %d films, want 6", len(st.Entities))
	}
	st = postOps(t, ts.URL, core.OpDTO{Op: "remove-feature", Feature: "Tom_Hanks:starring"})
	if len(st.Entities) != 0 {
		t.Fatal("feature removal did not clear results")
	}
	resp := postJSON(t, ts.URL+"/api/v1/ops", map[string]interface{}{
		"ops": []core.OpDTO{{Op: "add-feature", Feature: "Bogus:nope"}},
	})
	expectV1Err(t, resp, http.StatusBadRequest, core.KindInvalid)
}

func TestPivotEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	postOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	st := postOps(t, ts.URL, core.OpDTO{Op: "pivot", EntityID: uint32(f.E("Tom_Hanks"))})
	if !strings.Contains(st.Description, "Tom Hanks") {
		t.Fatalf("pivot description = %q", st.Description)
	}
	for _, e := range st.Entities {
		if e.Type != "Actor" {
			t.Fatalf("pivot produced %s of type %s", e.Name, e.Type)
		}
	}
}

func TestRevisitEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	postOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	postOps(t, ts.URL, core.OpDTO{Op: "pivot", EntityID: uint32(f.E("Tom_Hanks"))})
	st := postOps(t, ts.URL, core.OpDTO{Op: "revisit", Step: 1})
	if !strings.Contains(st.Description, "forrest gump") {
		t.Fatalf("revisit description = %q", st.Description)
	}
	resp := postJSON(t, ts.URL+"/api/v1/ops", map[string]interface{}{
		"ops": []core.OpDTO{{Op: "revisit", Step: 99}},
	})
	expectV1Err(t, resp, http.StatusBadRequest, core.KindInvalid)
}

func TestProfileEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	var p profileDTO
	decodeOK(t, getURL(t, fmt.Sprintf("%s/api/v1/profile?id=%d", ts.URL, f.E("Forrest_Gump"))), &p)
	if p.Name != "Forrest Gump" || len(p.Facts) == 0 || len(p.Literals) == 0 {
		t.Fatalf("profile = %+v", p)
	}
	decodeOK(t, getURL(t, ts.URL+"/api/v1/profile?name=Tom_Hanks"), &p)
	if p.Name != "Tom Hanks" {
		t.Fatalf("by-name profile = %+v", p)
	}
	// Each view is a lookup op on the timeline (Fig. 3-d, 3-g).
	var st StateV1DTO
	decodeOK(t, getURL(t, ts.URL+"/api/v1/state?include=timeline"), &st)
	if len(st.Timeline) != 2 || st.Timeline[0].Kind != "lookup" {
		t.Fatalf("profile views not on the timeline: %+v", st.Timeline)
	}

	for _, bad := range []struct {
		query  string
		status int
		kind   core.ErrKind
	}{
		{"", http.StatusBadRequest, core.KindInvalid},
		{"?id=abc", http.StatusBadRequest, core.KindInvalid},
		{"?id=999999", http.StatusNotFound, core.KindNotFound},
		{"?name=Zzz", http.StatusNotFound, core.KindNotFound},
	} {
		expectV1Err(t, getURL(t, ts.URL+"/api/v1/profile"+bad.query), bad.status, bad.kind)
	}
	decodeOK(t, getURL(t, ts.URL+"/api/v1/state?include=timeline"), &st)
	if len(st.Timeline) != 2 {
		t.Fatalf("failed lookups were recorded: %+v", st.Timeline)
	}
}

func TestHeatmapAndPathArtifacts(t *testing.T) {
	ts, _ := newTestServer(t)
	postOps(t, ts.URL,
		core.OpDTO{Op: "submit", Keywords: "forrest gump"},
		core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})
	for _, path := range []string{"/api/v1/heatmap.svg", "/api/v1/path.svg"} {
		resp := getURL(t, ts.URL+path)
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("%s content type %q", path, ct)
		}
		if !strings.Contains(buf.String(), "<svg") {
			t.Fatalf("%s not SVG", path)
		}
	}
	resp := getURL(t, ts.URL+"/api/v1/path.dot")
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("path.dot not DOT")
	}
}

func TestSuggestEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var hits []EntityDTO
	decodeOK(t, getURL(t, ts.URL+"/api/v1/suggest?q=tom"), &hits)
	if len(hits) == 0 {
		t.Fatal("no suggestions for 'tom'")
	}
	var empty []EntityDTO
	decodeOK(t, getURL(t, ts.URL+"/api/v1/suggest"), &empty)
	if len(empty) != 0 {
		t.Fatal("empty query returned suggestions")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	get := func(query string) map[string]interface{} {
		var body map[string]interface{}
		decodeOK(t, getURL(t, ts.URL+"/api/v1/explain?"+query), &body)
		return body
	}

	body := get(fmt.Sprintf("entity=%d&feature=Tom_Hanks:starring", f.E("Forrest_Gump")))
	if body["holds"] != true {
		t.Fatalf("member explain = %v", body)
	}
	if !strings.Contains(body["explanation"].(string), "matches") {
		t.Fatalf("explanation = %v", body["explanation"])
	}

	// Apollo_13 does not star Robin Wright but backs off via categories.
	body = get(fmt.Sprintf("entity=%d&feature=Robin_Wright:starring", f.E("Apollo_13")))
	if body["holds"] != false {
		t.Fatalf("backoff explain = %v", body)
	}
	if body["probability"].(float64) <= 0 {
		t.Fatal("backoff probability should be positive")
	}

	for _, bad := range []struct {
		query  string
		status int
		kind   core.ErrKind
	}{
		{"feature=Tom_Hanks:starring", http.StatusBadRequest, core.KindInvalid},
		{"entity=abc&feature=Tom_Hanks:starring", http.StatusBadRequest, core.KindInvalid},
		{"entity=999999&feature=Tom_Hanks:starring", http.StatusNotFound, core.KindNotFound},
		{fmt.Sprintf("entity=%d&feature=garbage", f.E("Apollo_13")), http.StatusBadRequest, core.KindInvalid},
	} {
		expectV1Err(t, getURL(t, ts.URL+"/api/v1/explain?"+bad.query), bad.status, bad.kind)
	}
}

func TestStateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var st StateV1DTO
	decodeOK(t, getURL(t, ts.URL+"/api/v1/state"), &st)
	if st.Description != "(empty query)" {
		t.Fatalf("initial description = %q", st.Description)
	}
}

func TestBadJSONBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/api/v1/ops", "/api/v1/session"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		expectV1Err(t, resp, http.StatusBadRequest, core.KindInvalid)
	}
}
