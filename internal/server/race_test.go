package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

// TestMultiConcurrentSessions drives a Multi front end from many
// concurrent clients: several distinct sessions issuing mutating
// operations plus read-only traffic hammering one shared session. Under
// -race this verifies the shared read core (graph, search index, feature
// cache) and the per-session RWMutex discipline: reads proceed
// concurrently, mutations serialize, and nothing needs a global lock.
func TestMultiConcurrentSessions(t *testing.T) {
	fx := kgtest.Build()
	m := NewMulti(fx.Graph, core.Options{}, 32)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	newClient := func() *http.Client {
		jar := &cookieJar{}
		return &http.Client{Jar: jar}
	}

	// post applies one op as a single-op /api/v1/ops batch.
	post := func(c *http.Client, op core.OpDTO) error {
		raw, _ := json.Marshal(map[string]interface{}{"ops": []core.OpDTO{op}})
		resp, err := c.Post(ts.URL+"/api/v1/ops", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /api/v1/ops %s: status %d", op.Op, resp.StatusCode)
		}
		return nil
	}
	get := func(c *http.Client, path string) error {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return nil
	}

	const writers = 4
	const readers = 4
	const iters = 15

	// One shared session exercised by all the readers while one writer
	// mutates it.
	sharedClient := newClient()
	if err := post(sharedClient, core.OpDTO{Op: "submit", Keywords: "forrest"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient() // distinct cookie → distinct session
			for i := 0; i < iters; i++ {
				if err := post(c, core.OpDTO{Op: "submit", Keywords: "hanks"}); err != nil {
					errs <- err
					return
				}
				if err := post(c, core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"}); err != nil {
					errs <- err
					return
				}
				if err := post(c, core.OpDTO{Op: "pivot", Entity: "Tom_Hanks"}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() { // writer on the shared session
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := post(sharedClient, core.OpDTO{Op: "add-entity", Entity: "Apollo_13"}); err != nil {
				errs <- err
				return
			}
			if err := post(sharedClient, core.OpDTO{Op: "remove-entity", Entity: "Apollo_13"}); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, p := range []string{"/api/v1/state", "/api/v1/heatmap.svg", "/api/v1/path.svg", "/api/v1/suggest?q=gump"} {
					if err := get(sharedClient, p); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := m.SessionCount(); n < 2 {
		t.Fatalf("expected multiple sessions, got %d", n)
	}
}

// cookieJar is a minimal concurrency-safe jar: it remembers the last
// cookies set and replays them on every request, which is all the
// session-cookie flow needs.
type cookieJar struct {
	mu      sync.Mutex
	cookies []*http.Cookie
}

func (j *cookieJar) SetCookies(_ *url.URL, cookies []*http.Cookie) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(cookies) > 0 {
		j.cookies = cookies
	}
}

func (j *cookieJar) Cookies(_ *url.URL) []*http.Cookie {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cookies
}
