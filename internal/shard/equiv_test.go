package shard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
	"pivote/internal/server"
)

// The equivalence suite: a sharded cluster behind the router must be
// indistinguishable from a single-process server — byte-identical
// bodies, identical statuses, identical headers that matter — for every
// shard count, across success responses, error envelopes, pagination
// boundaries, include combinations and the PPR-fallback divergence
// case. This is the subsystem's headline guarantee; everything in
// MergeStates exists to make these comparisons exact.

// equivStep is one request of a scripted session.
type equivStep struct {
	name   string
	method string
	path   string // path + query
	body   string // JSON (or raw) body; "" means no body
}

func equivScript() []equivStep {
	const (
		hanks  = "http://pivote.dev/resource/Tom_Hanks"
		sinise = "http://pivote.dev/resource/Gary_Sinise"
		gump   = "http://pivote.dev/resource/Forrest_Gump"
		zemeck = "http://pivote.dev/resource/Robert_Zemeckis"
	)
	return []equivStep{
		{"empty state", "GET", "/api/v1/state", ""},
		{"keyword submit", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"tom hanks film"}]}`},
		{"state entities only", "GET", "/api/v1/state?include=entities", ""},
		{"state features only", "GET", "/api/v1/state?include=features", ""},
		{"state heatmap only", "GET", "/api/v1/state?include=heatmap", ""},
		{"state timeline only", "GET", "/api/v1/state?include=timeline", ""},
		{"state entities+heatmap", "GET", "/api/v1/state?include=entities,heatmap", ""},
		{"seed query", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":""},{"op":"add-entity","entity":"` + gump + `"}]}`},
		{"two seeds", "POST", "/api/v1/ops", `{"ops":[{"op":"add-entity","entity":"` + hanks + `"}]}`},
		{"pinned feature", "POST", "/api/v1/ops?include=entities,features", `{"ops":[{"op":"add-feature","feature":"Tom_Hanks:starring"}]}`},
		{"unpin feature", "POST", "/api/v1/ops", `{"ops":[{"op":"remove-feature","feature":"Tom_Hanks:starring"}]}`},
		{"remove seed", "POST", "/api/v1/ops", `{"ops":[{"op":"remove-entity","entity":"` + hanks + `"}]}`},
		{"lookup", "POST", "/api/v1/ops", `{"ops":[{"op":"lookup","entity":"` + sinise + `"}]}`},
		// Pivoting on a director is the documented PPR-fallback case: two
		// directors share no direct neighbour, so the SF extent page is
		// empty and the engine falls back to a random walk. Under
		// sharding every shard must fall back and the merged fallback
		// page must equal the single-process one.
		{"pivot fallback", "POST", "/api/v1/ops", `{"ops":[{"op":"pivot","entity":"` + zemeck + `"}]}`},
		{"fallback state", "GET", "/api/v1/state", ""},
		{"revisit", "POST", "/api/v1/ops", `{"ops":[{"op":"revisit","step":1}]}`},
		{"batch replay", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"film"},{"op":"add-entity","entity":"` + gump + `"},{"op":"add-entity","entity":"` + sinise + `"}]}`},
		{"session download", "GET", "/api/v1/session", ""},

		// Error envelopes, all shapes: they must be byte-identical too,
		// including the opIndex of the failing op.
		{"unknown entity", "POST", "/api/v1/ops", `{"ops":[{"op":"add-entity","entity":"http://pivote.dev/resource/Nobody"}]}`},
		{"unknown entity mid-batch", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"x"},{"op":"add-entity","entity":"http://pivote.dev/resource/Nobody"}]}`},
		{"unknown op kind", "POST", "/api/v1/ops", `{"ops":[{"op":"frobnicate"}]}`},
		{"bad feature", "POST", "/api/v1/ops", `{"ops":[{"op":"add-feature","feature":"garbage"}]}`},
		{"revisit out of range", "POST", "/api/v1/ops", `{"ops":[{"op":"revisit","step":999}]}`},
		{"bad body", "POST", "/api/v1/ops", `{"ops":[`},
		{"bad include", "GET", "/api/v1/state?include=bogus", ""},
		{"bad include on ops", "POST", "/api/v1/ops?include=bogus", `{"ops":[]}`},
		{"state after errors", "GET", "/api/v1/state", ""},

		// Session replay round-trips: a saved file POSTed back, a
		// malformed file, an unsupported version, a replay with include.
		{"session load", "POST", "/api/v1/session", `{"version":2,"ops":[{"op":"submit","keywords":"hanks"},{"op":"add-entity","entity":"` + gump + `"}]}`},
		{"state after load", "GET", "/api/v1/state", ""},
		{"session load include", "POST", "/api/v1/session?include=timeline", `{"version":2,"ops":[{"op":"submit","keywords":"film"}]}`},
		{"session load bad op", "POST", "/api/v1/session", `{"version":2,"ops":[{"op":"submit","keywords":"x"},{"op":"add-entity","entity":"http://pivote.dev/resource/Nobody"}]}`},
		{"session load bad version", "POST", "/api/v1/session", `{"version":9}`},
		{"session load bad json", "POST", "/api/v1/session", `{"version":`},
		{"final state", "GET", "/api/v1/state", ""},
	}
}

// equivClient wraps one server with a cookie jar so the scripted
// session sticks to one session on both sides.
type equivClient struct {
	ts     *httptest.Server
	client *http.Client
}

func newEquivClient(t *testing.T, h http.Handler) *equivClient {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &equivClient{ts: ts, client: &http.Client{Jar: jar}}
}

func (c *equivClient) do(t *testing.T, step equivStep) (int, string, http.Header) {
	t.Helper()
	var body io.Reader
	if step.body != "" {
		body = strings.NewReader(step.body)
	}
	req, err := http.NewRequest(step.method, c.ts.URL+step.path, body)
	if err != nil {
		t.Fatal(err)
	}
	if step.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", step.name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read body: %v", step.name, err)
	}
	return resp.StatusCode, string(data), resp.Header
}

func runEquivalence(t *testing.T, shards int, opts core.Options) {
	t.Helper()
	runEquivalenceCfg(t, ClusterConfig{Shards: shards, Opts: opts})
}

// runEquivalenceCfg runs the scripted session against a single-process
// server and a cluster built from cfg, demanding byte-identical output.
func runEquivalenceCfg(t *testing.T, cfg ClusterConfig) {
	t.Helper()
	f := kgtest.Build()
	single := newEquivClient(t, server.NewMulti(f.Graph, cfg.Opts, 16).Handler())
	cl := NewCluster(f.Graph, cfg)
	t.Cleanup(func() { _ = cl.Close() })
	clustered := newEquivClient(t, cl.Handler())

	for _, step := range equivScript() {
		wantStatus, wantBody, wantHdr := single.do(t, step)
		gotStatus, gotBody, gotHdr := clustered.do(t, step)
		if gotStatus != wantStatus {
			t.Fatalf("%s: status diverged: single=%d sharded=%d\nsingle body: %s\nsharded body: %s",
				step.name, wantStatus, gotStatus, wantBody, gotBody)
		}
		if gotBody != wantBody {
			t.Fatalf("%s: body diverged (status %d)\nsingle:  %s\nsharded: %s",
				step.name, wantStatus, wantBody, gotBody)
		}
		for _, h := range []string{"Content-Type", "Content-Disposition"} {
			if gotHdr.Get(h) != wantHdr.Get(h) {
				t.Fatalf("%s: header %s diverged: single=%q sharded=%q",
					step.name, h, wantHdr.Get(h), gotHdr.Get(h))
			}
		}
	}
}

// TestEquivalence is the headline suite: N ∈ {1, 2, 4, 7} (1 being the
// degenerate single-shard cluster) at the default page size.
func TestEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			runEquivalence(t, n, core.Options{})
		})
	}
}

// TestEquivalencePagination pins the merge at page-size boundaries: k
// smaller than, equal to, and larger than what individual shards hold,
// so truncation inside MergeSorted is exercised from both sides.
func TestEquivalencePagination(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 50} {
		t.Run(fmt.Sprintf("top=%d", k), func(t *testing.T) {
			runEquivalence(t, 4, core.Options{TopEntities: k, TopFeatures: 6})
		})
	}
}

// TestEquivalenceRange runs the suite under the range partitioner,
// including a deliberately lopsided split whose high shard owns almost
// nothing — empty and near-empty partitions must stay invisible.
func TestEquivalenceRange(t *testing.T) {
	f := kgtest.Build()
	dictLen := f.Store.Dict().Len()
	cuts := [][]uint32{
		{uint32(dictLen) / 2}, // balanced-ish 2-way
		{3, uint32(dictLen)},  // shard 1 owns nearly all, shard 2 nothing
		{uint32(dictLen) / 3, 2 * uint32(dictLen) / 3},
	}
	for ci, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", ci), func(t *testing.T) {
			p, err := ParseSpec(rangeSpec(cut))
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{}
			single := newEquivClient(t, server.NewMulti(f.Graph, opts, 16).Handler())
			cl := NewCluster(f.Graph, ClusterConfig{Partitioner: p, Opts: opts})
			t.Cleanup(func() { _ = cl.Close() })
			clustered := newEquivClient(t, cl.Handler())
			for _, step := range equivScript() {
				wantStatus, wantBody, _ := single.do(t, step)
				gotStatus, gotBody, _ := clustered.do(t, step)
				if gotStatus != wantStatus || gotBody != wantBody {
					t.Fatalf("%s: diverged: single %d %s / sharded %d %s",
						step.name, wantStatus, wantBody, gotStatus, gotBody)
				}
			}
		})
	}
}

func rangeSpec(bounds []uint32) string {
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = fmt.Sprintf("%d", b)
	}
	return fmt.Sprintf("range/%d:%s", len(bounds)+1, strings.Join(parts, ","))
}
