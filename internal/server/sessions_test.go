package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

func newMultiServer(t *testing.T, maxSessions int) *httptest.Server {
	t.Helper()
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{TopEntities: 5, TopFeatures: 5}, maxSessions)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func clientWithJar(t *testing.T) *http.Client {
	t.Helper()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Jar: jar}
}

func postQuery(t *testing.T, c *http.Client, url, keywords string) StateV1DTO {
	t.Helper()
	raw, _ := json.Marshal(map[string]interface{}{
		"ops": []core.OpDTO{{Op: "submit", Keywords: keywords}},
	})
	resp, err := c.Post(url+"/api/v1/ops", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OpsResponse
	decodeOK(t, resp, &out)
	return out.State
}

func getState(t *testing.T, c *http.Client, url string) StateV1DTO {
	t.Helper()
	resp, err := c.Get(url + "/api/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StateV1DTO
	decodeOK(t, resp, &st)
	return st
}

func TestMultiSessionIsolation(t *testing.T) {
	ts := newMultiServer(t, 8)
	alice := clientWithJar(t)
	bob := clientWithJar(t)

	postQuery(t, alice, ts.URL, "forrest gump")
	postQuery(t, bob, ts.URL, "apollo")

	aliceState := getState(t, alice, ts.URL)
	bobState := getState(t, bob, ts.URL)
	if !strings.Contains(aliceState.Description, "forrest gump") {
		t.Fatalf("alice sees %q", aliceState.Description)
	}
	if !strings.Contains(bobState.Description, "apollo") {
		t.Fatalf("bob sees %q", bobState.Description)
	}
	if len(aliceState.Timeline) != 1 || len(bobState.Timeline) != 1 {
		t.Fatal("timelines leaked between sessions")
	}
}

func TestMultiSessionCookiePersistence(t *testing.T) {
	ts := newMultiServer(t, 8)
	c := clientWithJar(t)
	postQuery(t, c, ts.URL, "gump")
	postQuery(t, c, ts.URL, "apollo")
	st := getState(t, c, ts.URL)
	if len(st.Timeline) != 2 {
		t.Fatalf("timeline = %d actions, want 2 (same session)", len(st.Timeline))
	}
}

func TestMultiSessionEviction(t *testing.T) {
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{}, 2)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		c := clientWithJar(t)
		postQuery(t, c, ts.URL, "gump")
	}
	if got := m.SessionCount(); got > 2 {
		t.Fatalf("sessions = %d, want <= 2", got)
	}
}

func TestSessionSaveLoadEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	postOps(t, ts.URL,
		core.OpDTO{Op: "submit", Keywords: "forrest gump"},
		core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})

	resp := getURL(t, ts.URL+"/api/v1/session")
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "pivote-session.json") {
		t.Fatalf("session download disposition = %q", cd)
	}
	saved := new(bytes.Buffer)
	_, _ = saved.ReadFrom(resp.Body)
	if !strings.Contains(saved.String(), "Forrest_Gump") {
		t.Fatal("saved session lacks the seed")
	}

	// Load into a fresh server.
	ts2, _ := newTestServer(t)
	resp2, err := http.Post(ts2.URL+"/api/v1/session", "application/json", bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st StateV1DTO
	decodeOK(t, resp2, &st)
	if !strings.Contains(st.Description, "Forrest Gump") {
		t.Fatalf("loaded description = %q", st.Description)
	}
	if len(st.Timeline) != 2 {
		t.Fatalf("loaded timeline = %d actions", len(st.Timeline))
	}

	// A malformed file and a retired v1 file are both rejected, and
	// neither touches the loaded session.
	for _, bad := range []string{"{bad", `{"version":1,"actions":[]}`} {
		resp3, err := http.Post(ts2.URL+"/api/v1/session", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		defer resp3.Body.Close()
		expectV1Err(t, resp3, http.StatusBadRequest, core.KindInvalid)
	}
	var after StateV1DTO
	decodeOK(t, getURL(t, ts2.URL+"/api/v1/state"), &after)
	if after.Description != st.Description || len(after.Timeline) != 2 {
		t.Fatalf("rejected loads changed the session: %+v", after)
	}
}
