package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pivote/internal/core"
	"pivote/internal/kgtest"
	"pivote/internal/server"
)

// The chaos suite: the replicated cluster must stay byte-identical to a
// single-process server while replicas die, lag, lie (5xx) and tear
// response bodies — and must degrade to a typed unavailable error, not
// a wrong answer, only when an entire replica set is down. Faults are
// injected at the transport (FaultTransport), so the nodes themselves
// are never corrupted — exactly the failure model of a partitioned or
// crashed process.

// chaosOpts are router options tightened for test time: millisecond
// backoff and breaker cooldown so failover storms resolve instantly.
func chaosOpts() Options {
	return Options{
		Timeout:          2 * time.Second,
		RequestTimeout:   5 * time.Second,
		RetryBase:        time.Millisecond,
		RetryCap:         4 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
	}
}

func chaosHost(k, r int) string { return fmt.Sprintf("shard%dr%d.inproc", k, r) }

// TestChaosEquivalence runs the full equivalence script against a
// 2-shard × 3-replica cluster while one replica per shard is dead at
// every step (a rotating one, so each replica takes turns being down
// and coming back with a stale session). Every response must stay
// byte-identical to the single-process server: failover and
// repair-by-replay must be invisible. The suite runs once per codec
// mode — negotiated, forced wire, forced JSON, and a mixed cluster with
// one pre-codec shard — because failover and repair-by-replay are
// exactly where a codec bug would corrupt state invisibly.
func TestChaosEquivalence(t *testing.T) {
	modes := []struct {
		name     string
		codec    Codec
		jsonOnly []int
	}{
		{"codec=auto", CodecAuto, nil},
		{"codec=wire", CodecWire, nil},
		{"codec=json", CodecJSON, nil},
		{"codec=mixed", CodecAuto, []int{1}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			runChaosEquivalence(t, mode.codec, mode.jsonOnly)
		})
	}
}

func runChaosEquivalence(t *testing.T, codec Codec, jsonOnly []int) {
	const replicas = 3
	f := kgtest.Build()
	opts := core.Options{}
	single := newEquivClient(t, server.NewMulti(f.Graph, opts, 16).Handler())
	fault := NewFaultTransport(nil)
	ro := chaosOpts()
	ro.Codec = codec
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:         2,
		Replicas:       replicas,
		Opts:           opts,
		Live:           true,
		Router:         ro,
		Fault:          fault,
		JSONOnlyShards: jsonOnly,
	})
	t.Cleanup(func() { _ = cl.Close() })
	clustered := newEquivClient(t, cl.Handler())

	for i, step := range equivScript() {
		// Rotate the dead replica: revive everyone, then kill replica
		// (i mod 3) of every shard for the duration of this step.
		for k := range cl.Nodes {
			for r := 0; r < replicas; r++ {
				fault.Revive(chaosHost(k, r))
			}
			fault.Kill(chaosHost(k, i%replicas))
		}
		wantStatus, wantBody, wantHdr := single.do(t, step)
		gotStatus, gotBody, gotHdr := clustered.do(t, step)
		if gotStatus != wantStatus {
			t.Fatalf("%s (replica %d dead): status diverged: single=%d replicated=%d\nsingle body: %s\nreplicated body: %s",
				step.name, i%replicas, wantStatus, gotStatus, wantBody, gotBody)
		}
		if gotBody != wantBody {
			t.Fatalf("%s (replica %d dead): body diverged (status %d)\nsingle:     %s\nreplicated: %s",
				step.name, i%replicas, wantStatus, wantBody, gotBody)
		}
		for _, h := range []string{"Content-Type", "Content-Disposition"} {
			if gotHdr.Get(h) != wantHdr.Get(h) {
				t.Fatalf("%s: header %s diverged: single=%q replicated=%q",
					step.name, h, wantHdr.Get(h), gotHdr.Get(h))
			}
		}
	}
}

// TestChaosWholeSetDown pins the unavailability boundary: with one
// replica of a shard dead the cluster serves; with ALL replicas of one
// shard dead it answers 503 with a typed unavailable envelope (never a
// partial merge); revival restores service on the same session.
func TestChaosWholeSetDown(t *testing.T) {
	f := kgtest.Build()
	fault := NewFaultTransport(nil)
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:   2,
		Replicas: 2,
		Opts:     core.Options{},
		Live:     true,
		Router:   chaosOpts(),
		Fault:    fault,
	})
	t.Cleanup(func() { _ = cl.Close() })
	c := newEquivClient(t, cl.Handler())

	seed := equivStep{"seed", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"tom hanks film"}]}`}
	if code, body, _ := c.do(t, seed); code != http.StatusOK {
		t.Fatalf("seed: status %d: %s", code, body)
	}
	_, wantBody, _ := c.do(t, equivStep{"baseline", "GET", "/api/v1/state", ""})

	// One replica down: still serving, same bytes.
	fault.Kill(chaosHost(1, 0))
	if code, body, _ := c.do(t, equivStep{"degraded", "GET", "/api/v1/state", ""}); code != http.StatusOK || body != wantBody {
		t.Fatalf("one replica down: status %d, body diverged:\nwant %s\ngot  %s", code, wantBody, body)
	}

	// Whole set down: typed unavailable, not a wrong answer.
	fault.Kill(chaosHost(1, 1))
	code, body, _ := c.do(t, equivStep{"down", "GET", "/api/v1/state", ""})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("whole set down: status %d, want 503: %s", code, body)
	}
	var env server.V1ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("whole set down: not an error envelope: %s", body)
	}
	if string(env.Error.Kind) != "unavailable" {
		t.Fatalf("whole set down: kind %q, want unavailable: %s", env.Error.Kind, body)
	}

	// Revival restores the SAME session (repair-by-replay rebuilds the
	// shard-side state wherever it is needed).
	fault.Revive(chaosHost(1, 0))
	fault.Revive(chaosHost(1, 1))
	if code, body, _ := c.do(t, equivStep{"revived", "GET", "/api/v1/state", ""}); code != http.StatusOK || body != wantBody {
		t.Fatalf("after revival: status %d, body diverged:\nwant %s\ngot  %s", code, wantBody, body)
	}
}

// sessionPref digs the (single) router session out and reports its
// preferred replica for shard k — the one the next fault should target.
func sessionPref(t *testing.T, rt *Router, k int) int {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.sessions) != 1 {
		t.Fatalf("want exactly 1 router session, have %d", len(rt.sessions))
	}
	for _, rs := range rt.sessions {
		return rs.pref[k]
	}
	return 0
}

// TestChaosFaultKinds aims each scripted fault kind at the replica the
// session actually prefers and asserts the response stays byte-
// identical anyway: drops and torn bodies are absorbed by the in-place
// retry, delays by the per-attempt timeout, and 5xx answers by failing
// over to the sibling replica.
func TestChaosFaultKinds(t *testing.T) {
	f := kgtest.Build()
	fault := NewFaultTransport(nil)
	ro := chaosOpts()
	ro.Timeout = 50 * time.Millisecond // so a scripted delay becomes a timeout fast
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:   1,
		Replicas: 2,
		Opts:     core.Options{},
		Live:     true,
		Router:   ro,
		Fault:    fault,
	})
	t.Cleanup(func() { _ = cl.Close() })
	c := newEquivClient(t, cl.Handler())

	seed := equivStep{"seed", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"tom hanks film"}]}`}
	if code, body, _ := c.do(t, seed); code != http.StatusOK {
		t.Fatalf("seed: status %d: %s", code, body)
	}
	_, wantBody, _ := c.do(t, equivStep{"baseline", "GET", "/api/v1/state", ""})

	cases := []struct {
		name   string
		faults []Fault
	}{
		// Two one-shot transport faults exhaust the read's in-place
		// retry budget on the preferred replica, forcing a failover.
		{"drop", []Fault{{Drop: true}, {Drop: true}}},
		{"delay past timeout", []Fault{{Delay: 300 * time.Millisecond}, {Delay: 300 * time.Millisecond}}},
		{"truncated body", []Fault{{TruncateAt: 16}, {TruncateAt: 16}}},
		// A single transport fault is healed by the in-place retry —
		// no failover needed.
		{"drop once", []Fault{{Drop: true}}},
		// A 5xx is an answer, not a transport error: the read fails
		// over immediately and the sibling's page is served.
		{"server error", []Fault{{Status: http.StatusInternalServerError}}},
	}
	for _, tc := range cases {
		pref := sessionPref(t, cl.Router, 0)
		host := chaosHost(0, pref)
		fault.Push(host, tc.faults...)
		code, body, _ := c.do(t, equivStep{tc.name, "GET", "/api/v1/state", ""})
		if code != http.StatusOK || body != wantBody {
			t.Fatalf("%s: status %d, body diverged:\nwant %s\ngot  %s", tc.name, code, wantBody, body)
		}
		if n := fault.Pending(host); n != 0 {
			t.Fatalf("%s: %d scripted faults never consumed (aimed at %s)", tc.name, n, host)
		}
	}
}

// TestChaosResyncAfterMissedWrite drives the full divergence lifecycle:
// a replica dies, misses an ingest batch (the router marks it dirty and
// stops reading from it), revives, is force-resynced by the next
// rolling swap via snapshot adoption, and rejoins — with the cluster
// byte-identical to a single-process live server throughout, and the
// degradation visible in GET /api/v1/live at every stage.
func TestChaosResyncAfterMissedWrite(t *testing.T) {
	f := kgtest.Build()
	opts := core.Options{}
	singleSrv := server.NewMultiShared(core.NewLiveShared(f.Graph, opts), opts, 16)
	t.Cleanup(func() { _ = singleSrv.Shared().Close() })
	single := newEquivClient(t, singleSrv.Handler())
	fault := NewFaultTransport(nil)
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:   2,
		Replicas: 2,
		Opts:     opts,
		Live:     true,
		Router:   chaosOpts(),
		Fault:    fault,
	})
	t.Cleanup(func() { _ = cl.Close() })
	clustered := newEquivClient(t, cl.Handler())

	post := func(t *testing.T, c *equivClient, path, ctype, body string) (int, string) {
		t.Helper()
		resp, err := c.client.Post(c.ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	liveReport := func(t *testing.T) RouterLiveDTO {
		t.Helper()
		code, body, _ := clustered.do(t, equivStep{"live", "GET", "/api/v1/live", ""})
		if code != http.StatusOK {
			t.Fatalf("live: status %d: %s", code, body)
		}
		var dto RouterLiveDTO
		if err := json.Unmarshal([]byte(body), &dto); err != nil {
			t.Fatalf("live: %v: %s", err, body)
		}
		return dto
	}

	// Kill replica 1 of both shards, then ingest: the batch lands on the
	// survivors and the dead replicas are marked diverged.
	fault.Kill(chaosHost(0, 1))
	fault.Kill(chaosHost(1, 1))
	const nt = "<http://pivote.dev/resource/Chaos_Film> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/resource/Film> .\n" +
		"<http://pivote.dev/resource/Chaos_Film> <http://pivote.dev/ontology/starring> <http://pivote.dev/resource/Tom_Hanks> .\n"
	wantCode, wantBody := post(t, single, "/api/v1/ingest", "application/n-triples", nt)
	gotCode, gotBody := post(t, clustered, "/api/v1/ingest", "application/n-triples", nt)
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("ingest diverged: single %d %s / replicated %d %s", wantCode, wantBody, gotCode, gotBody)
	}

	// Revive: the replicas answer probes again but must stay out of
	// rotation — their stores missed the batch.
	fault.Revive(chaosHost(0, 1))
	fault.Revive(chaosHost(1, 1))
	dto := liveReport(t)
	if dto.Router.DegradedReplicas != 2 {
		t.Fatalf("after missed write: %d degraded replicas, want 2: %+v", dto.Router.DegradedReplicas, dto.Router)
	}
	for k := range dto.ShardHealth {
		if got := dto.ShardHealth[k].Replicas[1].State; got != "stale" {
			t.Fatalf("shard %d replica 1: state %q, want stale", k, got)
		}
		if !dto.ShardHealth[k].Healthy {
			t.Fatalf("shard %d should still be healthy on replica 0", k)
		}
	}

	// The rolling swap force-resyncs the stragglers via snapshot
	// adoption; its response must match a single-process compact.
	wantCode, wantBody = post(t, single, "/api/v1/compact", "", "")
	gotCode, gotBody = post(t, clustered, "/api/v1/compact", "", "")
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("compact diverged: single %d %s / replicated %d %s", wantCode, wantBody, gotCode, gotBody)
	}
	for k := range cl.Nodes {
		if got := cl.Nodes[k][1].Shared().Live().Adoptions(); got < 1 {
			t.Fatalf("shard %d replica 1: %d adoptions, want >= 1 (resync must go through snapshot adoption)", k, got)
		}
	}
	dto = liveReport(t)
	if dto.Router.DegradedReplicas != 0 {
		t.Fatalf("after resync: %d degraded replicas, want 0: %+v", dto.Router.DegradedReplicas, dto)
	}
	if dto.Router.Committed == 0 {
		t.Fatal("after rolling swap: committed generation still 0")
	}

	// The resynced replicas hold the published generation bytes: the
	// ingested entity resolves identically on both sides, wherever the
	// session lands.
	look := equivStep{"lookup", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"chaos"},{"op":"lookup","entity":"http://pivote.dev/resource/Chaos_Film"}]}`}
	wantStatus, wantB, _ := single.do(t, look)
	gotStatus, gotB, _ := clustered.do(t, look)
	if gotStatus != wantStatus || gotB != wantB {
		t.Fatalf("post-resync lookup diverged: single %d %s / replicated %d %s", wantStatus, wantB, gotStatus, gotB)
	}
}

// TestSwapStraddleRead pins the swap straddle: a read that leaves for
// a replica before a rolling swap commits and answers after it carries
// the old generation, and that alone must not mark the replica stale.
// At 1 shard × 1 replica a wrongly dirtied replica turns every later
// request into a 503 until the next swap, so the held read and the one
// after it must both succeed and the replica must stay clean.
func TestSwapStraddleRead(t *testing.T) {
	f := kgtest.Build()
	fault := NewFaultTransport(nil)
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:   1,
		Replicas: 1,
		Opts:     core.Options{},
		Live:     true,
		Router:   chaosOpts(),
		Fault:    fault,
	})
	t.Cleanup(func() { _ = cl.Close() })
	c := newEquivClient(t, cl.Handler())

	submit := equivStep{"submit", "POST", "/api/v1/ops", `{"ops":[{"op":"submit","keywords":"tom hanks"}]}`}
	if code, body, _ := c.do(t, submit); code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	// Pending writes, so the swap below publishes a new generation.
	const nt = "<http://pivote.dev/resource/Straddle_Film> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/resource/Film> .\n"
	resp, err := c.client.Post(c.ts.URL+"/api/v1/ingest", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	before := cl.Router.committedGen()

	// Hold the next answer of the replica: the state read is computed
	// on the old generation, and delivered only after the swap commits.
	held, release := make(chan struct{}), make(chan struct{})
	fault.Push(chaosHost(0, 0), Fault{Hold: func() {
		close(held)
		<-release
	}})
	type answer struct {
		code int
		body string
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := c.client.Get(c.ts.URL + "/api/v1/state")
		if err != nil {
			got <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		got <- answer{resp.StatusCode, string(data), err}
	}()
	<-held
	compact, err := c.client.Post(c.ts.URL+"/api/v1/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = compact.Body.Close()
	if compact.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d", compact.StatusCode)
	}
	if after := cl.Router.committedGen(); after <= before {
		t.Fatalf("swap committed generation %d, want > %d", after, before)
	}
	close(release)

	a := <-got
	if a.err != nil {
		t.Fatalf("held state read: %v", a.err)
	}
	if a.code != http.StatusOK {
		t.Fatalf("held state read: status %d: %s", a.code, a.body)
	}
	if cl.Router.health[0][0].isDirty() {
		t.Fatal("replica marked dirty by a read that straddled the swap commit")
	}
	if code, body, _ := c.do(t, equivStep{"state", "GET", "/api/v1/state", ""}); code != http.StatusOK {
		t.Fatalf("state after swap: status %d: %s", code, body)
	}
}

// TestHammerReplicatedChaos is the replicated race hammer: a 4-shard ×
// 2-replica live cluster serves concurrent sessions while an ingest
// loop drives >= 10 rolling swaps AND a chaos loop kills and revives
// one replica per shard the whole time. Run under -race (CI does).
// Transient 503s are legal — a kill can briefly leave a set with no
// clean replica — but they must be typed unavailable envelopes, the
// same session must keep working afterwards (repair-by-replay), and no
// response may ever be a panic, a torn merge, or a wrong answer.
func TestHammerReplicatedChaos(t *testing.T) {
	const (
		readers   = 6
		swapsWant = 10
	)
	f := kgtest.Build()
	fault := NewFaultTransport(nil)
	cl := NewCluster(f.Graph, ClusterConfig{
		Shards:   4,
		Replicas: 2,
		Opts:     core.Options{},
		Live:     true,
		Router:   chaosOpts(),
		Fault:    fault,
	})
	defer cl.Close()
	ts := httptest.NewServer(cl.Handler())
	defer ts.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, readers+2)

	// tolerable reports whether a non-200 is a legal degraded-mode
	// answer: a well-formed typed unavailable envelope.
	tolerable := func(code int, body string) bool {
		if code != http.StatusServiceUnavailable {
			return false
		}
		var env server.V1ErrorEnvelope
		return json.Unmarshal([]byte(body), &env) == nil && string(env.Error.Kind) == "unavailable"
	}

	post := func(c *http.Client, path, ctype, body string) (int, string, error) {
		resp, err := c.Post(ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data), err
	}

	// Chaos loop: kill one replica per shard, let traffic run degraded,
	// revive, alternate sides. Every replica takes turns being dead.
	var kills atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cycle := 0; !stop.Load(); cycle++ {
			r := cycle % 2
			for k := 0; k < 4; k++ {
				fault.Kill(chaosHost(k, r))
			}
			kills.Add(1)
			time.Sleep(4 * time.Millisecond)
			for k := 0; k < 4; k++ {
				fault.Revive(chaosHost(k, r))
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Leave everything alive for the post-hammer checks.
		for k := 0; k < 4; k++ {
			for r := 0; r < 2; r++ {
				fault.Revive(chaosHost(k, r))
			}
		}
	}()

	// Session workers: each owns one router session and keeps it alive
	// across kill windows — a tolerated 503 must be followed by working
	// requests on the SAME session once a replica is back.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			jar, err := cookiejar.New(nil)
			if err != nil {
				fail <- err.Error()
				return
			}
			c := &http.Client{Jar: jar}
			seeds := []string{"tom hanks", "film", "gary sinise", "gump"}
			for i := 0; !stop.Load(); i++ {
				kw := seeds[(w+i)%len(seeds)]
				body := fmt.Sprintf(`{"ops":[{"op":"submit","keywords":"%s"}]}`, kw)
				if code, data, err := post(c, "/api/v1/ops", "application/json", body); err != nil {
					fail <- fmt.Sprintf("worker %d ops: %v", w, err)
					return
				} else if code != http.StatusOK && !tolerable(code, data) {
					fail <- fmt.Sprintf("worker %d ops: status %d: %s", w, code, data)
					return
				}
				resp, err := c.Get(ts.URL + "/api/v1/state?include=entities,heatmap")
				if err != nil {
					fail <- fmt.Sprintf("worker %d state: %v", w, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && !tolerable(resp.StatusCode, string(data)) {
					fail <- fmt.Sprintf("worker %d state: status %d: %s", w, resp.StatusCode, data)
					return
				}
				if i%4 == 0 {
					resp, err := c.Get(ts.URL + "/api/v1/session")
					if err != nil {
						fail <- fmt.Sprintf("worker %d session: %v", w, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}

	// Writer: ingest a fresh film, then force a rolling swap, until at
	// least swapsWant swaps have committed. Unavailable rounds (the kill
	// window caught every clean replica of some shard) are retried,
	// never fatal.
	var committedSwaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		c := &http.Client{}
		for round := 0; committedSwaps.Load() < swapsWant; round++ {
			if round > 500 {
				fail <- fmt.Sprintf("hammer never reached %d swaps in %d rounds", swapsWant, round)
				return
			}
			nt := fmt.Sprintf(
				"<http://pivote.dev/resource/Hammer_Film_%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://pivote.dev/resource/Film> .\n"+
					"<http://pivote.dev/resource/Hammer_Film_%d> <http://pivote.dev/ontology/starring> <http://pivote.dev/resource/Tom_Hanks> .\n",
				round, round)
			if code, data, err := post(c, "/api/v1/ingest", "application/n-triples", nt); err != nil {
				fail <- fmt.Sprintf("ingest: %v", err)
				return
			} else if code != http.StatusOK && !tolerable(code, data) {
				fail <- fmt.Sprintf("ingest: status %d: %s", code, data)
				return
			}
			if code, data, err := post(c, "/api/v1/compact", "", ""); err != nil {
				fail <- fmt.Sprintf("compact: %v", err)
				return
			} else if code == http.StatusOK {
				committedSwaps.Add(1)
			} else if !tolerable(code, data) {
				fail <- fmt.Sprintf("compact: status %d: %s", code, data)
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if t.Failed() {
		return
	}
	if got := kills.Load(); got < 2 {
		t.Errorf("chaos loop only completed %d kill/revive cycles; hammer too short to mean anything", got)
	}
	if got := committedSwaps.Load(); got < swapsWant {
		t.Errorf("%d rolling swaps committed, want >= %d", got, swapsWant)
	}

	// Post-hammer: one final rolling swap with everything alive resyncs
	// any replica still marked dirty from the last kill window...
	c := &http.Client{}
	if code, data, err := post(c, "/api/v1/compact", "", ""); err != nil || code != http.StatusOK {
		t.Fatalf("post-hammer compact: code=%d err=%v body=%s", code, err, data)
	}
	// ...after which every replica of every shard must hold the SAME
	// committed generation — the convergence the rolling-swap protocol
	// promises — and the replicas that died mid-swap must have caught up
	// through snapshot adoption, not luck.
	want := cl.Router.committedGen()
	if want == 0 {
		t.Fatal("no committed generation after the hammer")
	}
	adoptions := uint64(0)
	for k := range cl.Nodes {
		for r, n := range cl.Nodes[k] {
			if got := n.Shared().Generation().ID; got != want {
				t.Errorf("shard %d replica %d at generation %d, want committed %d", k, r, got, want)
			}
			adoptions += n.Shared().Live().Adoptions()
		}
	}
	if adoptions == 0 {
		t.Error("no snapshot adoptions during a hammer full of kill/revive cycles")
	}
	// ...after which the ingested data must resolve through the router
	// on a fresh session, proving every surviving replica adopted the
	// swapped-in generations.
	jar, _ := cookiejar.New(nil)
	cj := &http.Client{Jar: jar}
	code, data, err := post(cj, "/api/v1/ops", "application/json",
		`{"ops":[{"op":"lookup","entity":"http://pivote.dev/resource/Hammer_Film_0"}]}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-hammer lookup of ingested entity: code=%d err=%v body=%s", code, err, data)
	}
}
