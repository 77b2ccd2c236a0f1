package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

// TestUIRoutesResolve pins the embedded UI to routes that exist. Every
// "/api/…" literal in indexHTML must resolve, with the method the page
// uses, on both the single-session and the multi-session handler; and
// every op the page builds must be accepted by /api/v1/ops in the exact
// shape the page posts it.
func TestUIRoutesResolve(t *testing.T) {
	f := kgtest.Build()
	opts := core.Options{TopEntities: 10, TopFeatures: 8}
	handlers := []struct {
		name string
		h    http.Handler
	}{
		{"Server", New(f.Graph, opts).Handler()},
		{"Multi", NewMulti(f.Graph, opts, 4).Handler()},
	}

	// api(path, body) posts; api(path) and api(path+param) get.
	type route struct{ method, path string }
	var routes []route
	for _, m := range regexp.MustCompile(`"(/api/[^"?]*)[^"]*"(,?)`).FindAllStringSubmatch(indexHTML, -1) {
		method := http.MethodGet
		if m[2] == "," {
			method = http.MethodPost
		}
		routes = append(routes, route{method, m[1]})
	}
	if len(routes) == 0 {
		t.Fatal("no /api/ path literals found in indexHTML")
	}

	// The op shapes the page builds, in an order that applies cleanly,
	// each with the body it posts for that shape.
	shapes := []struct{ js, body string }{
		{`op({op:"submit", keywords:`, `{"ops":[{"op":"submit","keywords":"forrest gump"}]}`},
		{`op({op:"add-entity", entityId:`, fmt.Sprintf(`{"ops":[{"op":"add-entity","entityId":%d}]}`, f.E("Forrest_Gump"))},
		{`op({op:"add-feature", feature:`, `{"ops":[{"op":"add-feature","feature":"Tom_Hanks:starring"}]}`},
		{`op({op:"pivot", entityId:`, fmt.Sprintf(`{"ops":[{"op":"pivot","entityId":%d}]}`, f.E("Tom_Hanks"))},
		{`op({op:"revisit", step:`, `{"ops":[{"op":"revisit","step":1}]}`},
	}
	known := map[string]bool{}
	for _, s := range shapes {
		known[s.js] = true
		if !strings.Contains(indexHTML, s.js) {
			t.Errorf("indexHTML no longer builds %s…}", s.js)
		}
	}
	for _, js := range regexp.MustCompile(`op\(\{op:"[a-z-]+", \w+:`).FindAllString(indexHTML, -1) {
		if !known[js] {
			t.Errorf("indexHTML builds %s…} but no body shape here covers it", js)
		}
	}
	// The page wraps each op in a one-op batch, renders resp.state and
	// reports failures from the typed envelope.
	for _, js := range []string{`{ops:[o]}`, `render(resp.state)`, `data.error.message`} {
		if !strings.Contains(indexHTML, js) {
			t.Errorf("indexHTML lacks %s", js)
		}
	}

	for _, hc := range handlers {
		ts := httptest.NewServer(hc.h)
		defer ts.Close()
		c := clientWithJar(t)
		do := func(method, path, body string) (int, []byte) {
			t.Helper()
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, raw
		}

		for _, r := range routes {
			body := ""
			if r.method == http.MethodPost {
				body = `{"ops":[]}`
			}
			if code, raw := do(r.method, r.path, body); code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
				t.Errorf("%s: %s %s = %d (%.80s)", hc.name, r.method, r.path, code, raw)
			}
		}

		for _, s := range shapes {
			code, raw := do(http.MethodPost, "/api/v1/ops", s.body)
			var out OpsResponse
			if code != http.StatusOK || json.Unmarshal(raw, &out) != nil || out.Applied != 1 || out.State.Description == "" {
				t.Errorf("%s: %s = %d: %.120s", hc.name, s.body, code, raw)
			}
		}

		code, raw := do(http.MethodPost, "/api/v1/ops", `{"ops":[{"op":"revisit","step":99}]}`)
		var env V1ErrorEnvelope
		if code != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Error.Message == "" {
			t.Errorf("%s: failing op = %d %s, want a typed envelope with a message", hc.name, code, raw)
		}
	}
}
