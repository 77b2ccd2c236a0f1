package shard

import (
	"net/http"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
	"pivote/internal/server"
)

// TestRouterRejectsV1SessionFile: a retired v1 session file (per-action
// query snapshots) uploaded through the router gets the same typed
// "unsupported version" rejection, byte for byte, as from a single
// process, and leaves the loaded session in place on every shard.
func TestRouterRejectsV1SessionFile(t *testing.T) {
	f := kgtest.Build()
	single := newEquivClient(t, server.NewMulti(f.Graph, core.Options{}, 4).Handler())
	cl := NewCluster(f.Graph, ClusterConfig{Shards: 2})
	t.Cleanup(func() { _ = cl.Close() })
	clustered := newEquivClient(t, cl.Handler())

	steps := []equivStep{
		{"session load", "POST", "/api/v1/session", `{"version":2,"ops":[{"op":"submit","keywords":"hanks"},{"op":"add-entity","entity":"Forrest_Gump"}]}`},
		{"v1 session load", "POST", "/api/v1/session", `{"version":1,"actions":[{"step":1,"kind":"submit","query":{"keywords":"apollo"}}]}`},
		{"state after v1 load", "GET", "/api/v1/state", ""},
	}
	for _, step := range steps {
		wantStatus, wantBody, _ := single.do(t, step)
		gotStatus, gotBody, _ := clustered.do(t, step)
		if gotStatus != wantStatus || gotBody != wantBody {
			t.Fatalf("%s diverged:\nsingle  %d %s\nsharded %d %s", step.name, wantStatus, wantBody, gotStatus, gotBody)
		}
		switch step.name {
		case "v1 session load":
			if gotStatus != http.StatusBadRequest || !strings.Contains(gotBody, `"kind":"invalid"`) ||
				!strings.Contains(gotBody, "unsupported version 1") {
				t.Fatalf("v1 upload = %d %s, want a typed invalid rejection", gotStatus, gotBody)
			}
		case "state after v1 load":
			if !strings.Contains(gotBody, `keywords=\"hanks\"`) {
				t.Fatalf("rejected v1 upload replaced the session: %s", gotBody)
			}
		}
	}
}
