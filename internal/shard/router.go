package shard

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pivote/internal/core"
	"pivote/internal/errs"
	"pivote/internal/obs"
	"pivote/internal/server"
	"pivote/internal/wire"
)

// Options tune a Router; zero values select the documented defaults.
type Options struct {
	// TopEntities is the merged x-axis size and MUST match the shard
	// nodes' core.Options.TopEntities (default 20): per-shard page
	// lengths alone cannot reveal the global page size.
	TopEntities int
	// Timeout bounds each individual request attempt (default 10s).
	Timeout time.Duration
	// RequestTimeout bounds one whole logical shard request — every
	// replica attempt, backoff pause and session repair included
	// (default 15s). Without it a hung replica stalls the entire
	// scatter until the client gives up; with it the request fails over
	// (or fails typed) inside a bounded window.
	RequestTimeout time.Duration
	// RetryBase and RetryCap shape the bounded exponential backoff
	// between attempts against one replica: retry n sleeps a random
	// duration in (0, min(RetryCap, RetryBase<<(n-1))] — full jitter,
	// so concurrent sessions hitting the same dying replica do not
	// retry in lockstep. Defaults 25ms and 250ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold consecutive transport failures open a replica's
	// circuit breaker (default 3): the router stops sending it traffic
	// until BreakerCooldown (default 1s) elapses, then lets one probe
	// through — so a dead replica costs its connection failures once
	// per cooldown instead of once per request.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxSessions bounds the router-side session LRU (default 64, like
	// server.Multi).
	MaxSessions int
	// Codec selects the inter-node codec policy: CodecAuto (default)
	// negotiates the binary codec per replica and falls back to JSON,
	// CodecJSON forces the fallback everywhere, CodecWire forces the
	// codec on without negotiating. See codec.go.
	Codec Codec
	// Transport issues the shard requests; nil selects
	// http.DefaultTransport. The in-process cluster plugs its
	// InprocTransport (optionally wrapped in a FaultTransport) in here.
	Transport http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.TopEntities <= 0 {
		o.TopEntities = 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 250 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	return o
}

// Router is the scatter-gather front of a replicated shard cluster: it
// serves the /api/v1 surface, fans every request out to all shards, and
// merges the per-shard pages back into the exact bytes a single-process
// server would have produced (see MergeStates for the rules and why
// they are sound).
//
// Each shard is a replica SET. Reads are routed to one healthy replica
// per shard (session affinity first, then health-ordered rotation) and
// fail over on transport error; a replica that keeps failing trips a
// per-replica circuit breaker and is routed around until its cooldown
// expires. Writes (ingest) fan to every replica of every shard with
// agreement checks; compaction is a coordinated rolling swap (see
// swap.go). A replica that missed a write or a swap while unreachable
// is marked dirty — excluded from reads, force-resynced by the next
// rolling swap — so the router degrades per replica and only returns a
// typed unavailable error when an entire replica set is gone.
//
// The router holds no graph. Its per-session state is the canonical op
// log plus one cookie per replica; the log is what makes the cluster
// self-healing — a replica that lost its session (restart, LRU
// eviction, failed fan-out, failover target that never saw the session)
// is repaired by idempotently replaying the log through
// POST /api/v1/session before it serves the session.
type Router struct {
	shards [][]string // [shard][replica] base URLs
	opts   Options
	client *http.Client

	mu       sync.Mutex
	sessions map[string]*routerSession
	lru      *list.List // of string tokens, most-recent first

	// ctrl holds per-replica cookies for the session-independent
	// surface (ingest, compact, adopt, live) so control traffic reuses
	// one shard session per replica instead of minting one per request.
	ctrlMu sync.Mutex
	ctrl   [][]string

	// ingestMu serializes write fan-outs (ingest, compact/rolling
	// swap): every replica must intern new terms in the same order so
	// TermIDs — and therefore the partitioning — stay identical across
	// the cluster, and no ingest may land between a shard's compaction
	// and its peers' adoption of the result.
	ingestMu sync.Mutex

	health [][]*replicaHealth

	// scatter is the per-(shard, replica) request-latency grid, built
	// once at construction so the hot path indexes a slice instead of
	// hitting the registry.
	scatter [][]*obs.Histogram

	// committed is the newest generation the rolling-swap protocol
	// committed cluster-wide (every clean replica of every shard adopted
	// it — the stores hold the full graph and partition at emission, so
	// one snapshot serves the whole cluster). A replica answering from
	// an older generation is stale (it revived after missing a swap) and
	// is marked dirty instead of served.
	committed atomic.Uint64

	// rr spreads fresh sessions across replicas.
	rr atomic.Uint32

	// wireCap is the per-replica codec negotiation state (see codec.go).
	wireCap [][]atomic.Int32

	// genFlight coalesces concurrent generation-agreement waits across
	// sessions (see flight.go).
	genFlight flightGroup
}

// routerSession is the per-cookie state: the replayable op log, one
// shard-session cookie per replica, the per-replica sync mark, and the
// preferred replica per shard (session affinity — the shard-side
// session cache lives there). mu serializes fan-outs for the session
// the same way server.mu serializes a single-process session's
// requests.
//
// synced[k][r] is the log length replica (k, r) is known to hold: a
// mutation fan only lands on one replica per shard, so the others fall
// behind the log the moment it grows — not just when a failure is
// observed. Any replica whose mark differs from len(log) (-1 encodes
// "unknown", the ambiguous-failure case) is repaired by replay before
// it serves the session; that invariant is what lets a failover target
// that hasn't seen the session for fifty batches — or ever — answer
// with the exact bytes the dead replica would have produced.
type routerSession struct {
	mu      sync.Mutex
	log     []core.OpDTO
	cookies [][]string
	synced  [][]int
	pref    []int
	elem    *list.Element

	// logEnc caches the repair body (the v2 session file of log) in both
	// codecs, so repairing R replicas — or repairing again next request —
	// re-encodes nothing. Refreshed via refreshLogEnc whenever the log
	// changes, always under rs.mu and never while a fan is in flight;
	// fan goroutines only read the pointer and encode through its
	// sync.Onces.
	logEnc *hopBody
}

// refreshLogEnc rebinds the cached repair encodings to the current log.
// The closures capture the slice VALUE, so a later append to rs.log can
// neither change nor race an encoding already handed out.
func (rs *routerSession) refreshLogEnc() {
	log := rs.log
	rs.logEnc = &hopBody{
		mkJSON: func() []byte {
			b, _ := json.Marshal(sessionFileJSON{Version: 2, Ops: log})
			return b
		},
		mkWire: func() []byte { return wire.AppendSessionFile(nil, 2, log) },
	}
}

// unsynced marks a replica session in an unknown or diverged state.
const unsynced = -1

// sessionFileJSON mirrors the engine's v2 session-file shape; the
// router writes it when replaying its log into a shard replica.
type sessionFileJSON struct {
	Version int          `json:"version"`
	Ops     []core.OpDTO `json:"ops"`
}

// NewRouter builds a router over unreplicated shards — one base URL
// (scheme + host, no trailing slash) per shard.
func NewRouter(shardURLs []string, opts Options) *Router {
	sets := make([][]string, len(shardURLs))
	for i, u := range shardURLs {
		sets[i] = []string{u}
	}
	return NewReplicatedRouter(sets, opts)
}

// NewReplicatedRouter builds a router over replica sets: urls[k] lists
// the base URLs of shard k's replicas. Every set must be non-empty.
func NewReplicatedRouter(urls [][]string, opts Options) *Router {
	opts = opts.withDefaults()
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	shards := make([][]string, len(urls))
	ctrl := make([][]string, len(urls))
	health := make([][]*replicaHealth, len(urls))
	for k, set := range urls {
		shards[k] = make([]string, len(set))
		ctrl[k] = make([]string, len(set))
		health[k] = make([]*replicaHealth, len(set))
		for r, u := range set {
			shards[k][r] = strings.TrimRight(u, "/")
			health[k][r] = &replicaHealth{}
		}
	}
	return &Router{
		shards:   shards,
		opts:     opts,
		client:   &http.Client{Transport: transport},
		sessions: map[string]*routerSession{},
		lru:      list.New(),
		ctrl:     ctrl,
		health:   health,
		scatter:  scatterHist(shards),
		wireCap:  newWireCap(shards),
	}
}

// NumShards reports the cluster size.
func (rt *Router) NumShards() int { return len(rt.shards) }

// NumReplicas reports the replica count of shard k.
func (rt *Router) NumReplicas(k int) int { return len(rt.shards[k]) }

func (rt *Router) committedGen() uint64 { return rt.committed.Load() }

func (rt *Router) commitGen(g uint64) {
	for {
		cur := rt.committed.Load()
		if g <= cur || rt.committed.CompareAndSwap(cur, g) {
			return
		}
	}
}

// Handler returns the router's HTTP handler: the full /api/v1 surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/ops", rt.withSession(rt.handleOps))
	mux.HandleFunc("GET /api/v1/state", rt.withSession(rt.handleState))
	mux.HandleFunc("GET /api/v1/session", rt.withSession(rt.handleSessionSave))
	mux.HandleFunc("POST /api/v1/session", rt.withSession(rt.handleSessionLoad))
	mux.HandleFunc("POST /api/v1/ingest", rt.handleIngest)
	mux.HandleFunc("POST /api/v1/compact", rt.handleCompact)
	mux.HandleFunc("GET /api/v1/live", rt.handleLive)
	// The same observability surface a shard node serves, so one scrape
	// config covers every process shape in the cluster.
	obs.MetricsRoutes(mux, obs.Default, obs.SlowQueries)
	return mux
}

const sessionCookie = "pivote_session" // same name the shard nodes use

// withSession resolves (or mints) the router-side session for the
// request and pins its cookie on the response, mirroring server.Multi.
func (rt *Router) withSession(h func(http.ResponseWriter, *http.Request, *routerSession)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token := ""
		if c, err := r.Cookie(sessionCookie); err == nil && c.Value != "" {
			token = c.Value
		}
		rs, token, err := rt.getOrCreate(token)
		if err != nil {
			server.WriteV1Error(w, err, nil)
			return
		}
		http.SetCookie(w, &http.Cookie{
			Name:     sessionCookie,
			Value:    token,
			Path:     "/",
			HttpOnly: true,
			SameSite: http.SameSiteLaxMode,
		})
		h(w, r, rs)
	}
}

func (rt *Router) getOrCreate(token string) (*routerSession, string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rs, ok := rt.sessions[token]; ok {
		rt.lru.MoveToFront(rs.elem)
		return rs, token, nil
	}
	// Unknown (or empty) token: mint a fresh one, never adopt a
	// client-supplied value — same policy as server.Multi.
	token, err := newToken()
	if err != nil {
		return nil, "", err
	}
	rs := &routerSession{
		cookies: make([][]string, len(rt.shards)),
		synced:  make([][]int, len(rt.shards)),
		pref:    make([]int, len(rt.shards)),
	}
	rs.refreshLogEnc()
	seed := int(rt.rr.Add(1))
	for k := range rt.shards {
		rs.cookies[k] = make([]string, len(rt.shards[k]))
		rs.synced[k] = make([]int, len(rt.shards[k]))
		rs.pref[k] = seed % len(rt.shards[k])
	}
	rs.elem = rt.lru.PushFront(token)
	rt.sessions[token] = rs
	for len(rt.sessions) > rt.opts.MaxSessions {
		oldest := rt.lru.Back()
		rt.lru.Remove(oldest)
		delete(rt.sessions, oldest.Value.(string))
	}
	return rs, token, nil
}

// newToken mints a session ID. An entropy failure surfaces as a typed
// internal error on the response path — a router must not crash the
// process because /dev/urandom hiccuped under one request.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", errs.Errf(errs.KindInternal, "shard: session id: crypto/rand unavailable: %v", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// shardResp is one replica's reply, body fully read into a pooled
// buffer. The consumer that receives it owns it and calls free() after
// the last touch of body/header (see bufpool.go).
type shardResp struct {
	status int
	header http.Header
	body   []byte
	bp     *[]byte // pool ticket for body's buffer; nil once freed
}

func (sr *shardResp) sessionCookie() string {
	for _, c := range (&http.Response{Header: sr.header}).Cookies() {
		if c.Name == sessionCookie {
			return c.Value
		}
	}
	return ""
}

// generation parses the response's generation header; ok is false when
// the response carries none (error envelopes, session downloads).
func (sr *shardResp) generation() (uint64, bool) {
	v := sr.header.Get(server.GenerationHeader)
	if v == "" {
		return 0, false
	}
	g, err := strconv.ParseUint(v, 10, 64)
	return g, err == nil
}

// shardOutcome is one shard's result of a fan-out: the reply (or typed
// error) plus which replica produced it.
type shardOutcome struct {
	resp    *shardResp
	err     error
	replica int
}

// sendReplica issues one request to a specific replica with a
// per-attempt timeout and, when retries > 0, bounded-exponential
// jittered retries on transport failure. HTTP responses of any status
// are NOT retried here — they are answers; replica selection above
// decides whether to fail over on them. A request that cannot be
// delivered comes back as a typed unavailable error. parent is the
// client's context: its cancellation is reported as canceled, while an
// expiry of the (router-imposed) deadline on ctx is reported as
// unavailable — a hung replica is the cluster's problem, not the
// client's.
func (rt *Router) sendReplica(parent, ctx context.Context, k, r int, method, pathq string, body []byte, contentType, cookie string, retries int) (*shardResp, error) {
	h := rt.health[k][r]
	defer shardEnd(rt.scatter[k][r], shardStart())
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			if !rt.backoff(ctx, attempt) {
				break // context ended during backoff; classified below
			}
		}
		resp, err := rt.sendOnce(ctx, k, r, method, pathq, body, contentType, cookie)
		if err == nil {
			h.recordSuccess()
			if g, ok := resp.generation(); ok {
				h.observeGen(g)
			}
			return resp, nil
		}
		if errors.Is(err, errHopTooLarge) {
			// An oversized body is a deterministic answer, not a transient
			// fault: retrying would re-download the same overflow.
			h.recordFailure(err.Error(), rt.opts.BreakerThreshold, rt.opts.BreakerCooldown)
			return nil, errs.Errf(errs.KindUnavailable, "shard %d replica %d (%s): %v",
				k, r, rt.shards[k][r], err)
		}
		lastErr = err
		if ctx.Err() != nil {
			if parent.Err() != nil {
				// The client went away: report cancellation, not shard death.
				return nil, errs.Errf(errs.KindCanceled, "shard %d: %v", k, parent.Err())
			}
			h.recordFailure("timed out", rt.opts.BreakerThreshold, rt.opts.BreakerCooldown)
			return nil, errs.Errf(errs.KindUnavailable, "shard %d replica %d (%s): request timed out: %v",
				k, r, rt.shards[k][r], err)
		}
		h.recordFailure(err.Error(), rt.opts.BreakerThreshold, rt.opts.BreakerCooldown)
	}
	return nil, errs.Errf(errs.KindUnavailable, "shard %d replica %d (%s) unreachable: %v",
		k, r, rt.shards[k][r], lastErr)
}

func (rt *Router) sendOnce(ctx context.Context, k, r int, method, pathq string, body []byte, contentType, cookie string) (*shardResp, error) {
	cctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
	defer cancel()
	var rdr io.Reader
	if body != nil {
		rdr = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(cctx, method, rt.shards[k][r]+pathq, rdr)
	if err != nil {
		return nil, err
	}
	if contentType != "" && body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if cookie != "" {
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	}
	offerWire := rt.opts.Codec != CodecJSON && wireEligible(method, pathq)
	if offerWire {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if offerWire {
		// Negotiated routes always advertise (even on error envelopes),
		// so any response is a definitive capability verdict.
		rt.observeWireCap(k, r, resp.Header)
	}
	data, bp, err := readBody(resp.Body, resp.ContentLength, limitFor(pathq))
	if err != nil {
		// A truncated or torn body is a transport failure, not an
		// answer: the status line arrived but the response did not.
		// (An oversized one is typed and handled by sendReplica.)
		return nil, err
	}
	return &shardResp{status: resp.StatusCode, header: resp.Header, body: data, bp: bp}, nil
}

// repair replays the session's op log into replica (k, r), rebuilding
// the shard-side session from scratch. Replay is idempotent
// (LoadSession replaces the session wholesale), and ?include=timeline
// keeps it cheap: the shard skips ranking and heat-map work entirely.
// The body comes from the session's cached log encodings (rs.logEnc) —
// repairing many replicas, or the same one across requests, re-encodes
// the log zero times.
func (rt *Router) repair(parent, ctx context.Context, rs *routerSession, k, r int) error {
	body, contentType := rt.pick(rs.logEnc, k, r)
	resp, err := rt.sendReplica(parent, ctx, k, r, http.MethodPost, "/api/v1/session?include=timeline",
		body, contentType, rs.cookies[k][r], 1)
	if err != nil {
		return err
	}
	defer resp.free()
	if c := resp.sessionCookie(); c != "" {
		rs.cookies[k][r] = c
	}
	if resp.status != http.StatusOK {
		return errs.Errf(errs.KindUnavailable, "shard %d replica %d: session repair failed: %s",
			k, r, strings.TrimSpace(string(resp.body)))
	}
	rs.synced[k][r] = len(rs.log)
	return nil
}

// statefulReplica issues a session-scoped request to one replica,
// transparently repairing the replica's session first when it is out of
// sync with the log (it missed mutations routed elsewhere, holds an
// ambiguous state, or has never seen the session at all), and redoing
// the request once when the replica evicted the session mid-flight
// (detected by a changed session cookie: shard nodes never adopt an
// unknown token, so a different Set-Cookie value proves the response
// came from a fresh, empty session instead of ours).
func (rt *Router) statefulReplica(parent, ctx context.Context, rs *routerSession, k, r int, method, pathq string, hb *hopBody, retries int) (*shardResp, error) {
	if rs.synced[k][r] != len(rs.log) {
		if err := rt.repair(parent, ctx, rs, k, r); err != nil {
			return nil, err
		}
	}
	body, contentType := rt.pick(hb, k, r)
	resp, err := rt.sendReplica(parent, ctx, k, r, method, pathq, body, contentType, rs.cookies[k][r], retries)
	if err != nil {
		// Ambiguous outcome (a mutation may or may not have landed):
		// force a repair before this replica serves this session again.
		rs.synced[k][r] = unsynced
		return nil, err
	}
	c := resp.sessionCookie()
	switch {
	case rs.cookies[k][r] == "":
		rs.cookies[k][r] = c
	case c != "" && c != rs.cookies[k][r]:
		resp.free() // fresh-session answer; superseded by the redo below
		rs.cookies[k][r] = c
		if err := rt.repair(parent, ctx, rs, k, r); err != nil {
			rs.synced[k][r] = unsynced
			return nil, err
		}
		// Re-pick: the negotiation state may have flipped on the repair.
		body, contentType = rt.pick(hb, k, r)
		resp, err = rt.sendReplica(parent, ctx, k, r, method, pathq, body, contentType, rs.cookies[k][r], retries)
		if err != nil {
			rs.synced[k][r] = unsynced
			return nil, err
		}
		if c2 := resp.sessionCookie(); c2 != "" {
			rs.cookies[k][r] = c2
		}
	}
	return resp, nil
}

// stateful issues a session-scoped request to shard k, failing over
// across the shard's replicas: transport failures (and, for idempotent
// requests, 5xx responses and answers from a generation older than the
// shard's committed one) move on to the next healthy replica; the
// replica that answers becomes the session's preferred replica. Only
// when every replica is exhausted does the shard report a typed
// unavailable error. retries > 0 marks the request idempotent (reads,
// replays); mutations pass 0 and fail over on transport errors alone —
// the stale-repair machinery is their retry path.
func (rt *Router) stateful(ctx context.Context, rs *routerSession, k int, method, pathq string, hb *hopBody, retries int) (*shardResp, int, error) {
	reqCtx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	order, dirty := rt.replicaOrder(k, rs.pref[k])
	if len(order) == 0 {
		return nil, -1, errs.Errf(errs.KindUnavailable,
			"shard %d: all %d replicas diverged, awaiting resync", k, dirty)
	}
	idempotent := retries > 0
	var firstServerErr *shardResp
	firstServerReplica := -1
	var lastErr error
	for i, r := range order {
		// The generation committed when the hop leaves is the one the
		// answer must reach: a swap that commits while the hop is in
		// flight does not make the replica stale, but a replica that
		// missed an earlier swap still answers below this mark.
		committed := rt.committedGen()
		resp, err := rt.statefulReplica(ctx, reqCtx, rs, k, r, method, pathq, hb, retries)
		if err != nil {
			if errs.KindOf(err) == errs.KindCanceled {
				return nil, r, err
			}
			lastErr = err
			if i < len(order)-1 {
				mFailovers.Inc()
			}
			continue
		}
		if g, ok := resp.generation(); ok && resp.status == http.StatusOK && g < committed {
			// The replica answered from a generation the cluster moved
			// past — it revived after missing a swap. Serving it would
			// un-happen acknowledged writes; resync it instead. The
			// request may have mutated the replica's session, so its sync
			// mark is gone too.
			rt.health[k][r].markDirty("behind committed generation")
			rs.synced[k][r] = unsynced
			lastErr = errs.Errf(errs.KindUnavailable,
				"shard %d replica %d: generation %d behind committed %d", k, r, g, committed)
			resp.free()
			continue
		}
		if idempotent && resp.status >= http.StatusInternalServerError {
			// A 5xx on an idempotent request: remember the answer but
			// give the other replicas a chance to serve.
			if firstServerErr == nil {
				firstServerErr, firstServerReplica = resp, r
			} else {
				resp.free()
			}
			continue
		}
		rs.pref[k] = r
		firstServerErr.free() // a later replica served; the 5xx loses
		return resp, r, nil
	}
	if firstServerErr != nil {
		return firstServerErr, firstServerReplica, nil
	}
	if lastErr == nil {
		lastErr = errs.Errf(errs.KindUnavailable, "shard %d: no replica available", k)
	}
	return nil, -1, lastErr
}

// fanStateful runs a session-scoped request against every shard
// concurrently. The caller holds rs.mu; the goroutines touch disjoint
// per-shard slots (cookies, staleness, preference are per-shard
// slices).
func (rt *Router) fanStateful(ctx context.Context, rs *routerSession, method, pathq string, hb *hopBody, retries int) []shardOutcome {
	outs := make([]shardOutcome, len(rt.shards))
	var wg sync.WaitGroup
	for k := range rt.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			resp, r, err := rt.stateful(ctx, rs, k, method, pathq, hb, retries)
			outs[k] = shardOutcome{resp: resp, err: err, replica: r}
		}(k)
	}
	wg.Wait()
	return outs
}

// firstFailure finds the lowest-indexed shard whose request failed
// (transport error or non-200), or -1 when all succeeded. Picking the
// lowest index keeps error responses deterministic.
func firstFailure(outs []shardOutcome) int {
	for k := range outs {
		if outs[k].err != nil || outs[k].resp.status != http.StatusOK {
			return k
		}
	}
	return -1
}

// markApplied voids the sync mark of every replica session that
// accepted a mutation the batch ultimately failed on (some peer
// rejected it or went away): their session state has diverged from the
// log and must be rebuilt by replay before next use.
func markApplied(rs *routerSession, outs []shardOutcome) {
	for k := range outs {
		if outs[k].err == nil && outs[k].resp.status == http.StatusOK && outs[k].replica >= 0 {
			rs.synced[k][outs[k].replica] = unsynced
		}
	}
}

// markSynced records, after the log changed to length n, that the
// replica which served each shard's part of the mutation now holds
// exactly the new log. Every other replica's mark now differs from
// len(log), which is precisely what schedules their repair.
func markSynced(rs *routerSession, outs []shardOutcome, n int) {
	for k := range outs {
		if outs[k].replica >= 0 {
			rs.synced[k][outs[k].replica] = n
		}
	}
}

// relay writes a shard's response through unchanged — error envelopes
// and downloads stay byte-identical to a direct server's.
func relay(w http.ResponseWriter, resp *shardResp) {
	for _, k := range []string{"Content-Type", "Content-Disposition"} {
		if v := resp.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// failOut reports the fan-out's first failure: transport failures
// become typed unavailable envelopes, shard HTTP errors are relayed
// verbatim.
func failOut(w http.ResponseWriter, outs []shardOutcome, k int) {
	if outs[k].err != nil {
		server.WriteV1Error(w, outs[k].err, nil)
		return
	}
	relay(w, outs[k].resp)
}

func rawQuery(r *http.Request) string {
	if r.URL.RawQuery != "" {
		return "?" + r.URL.RawQuery
	}
	return ""
}

// sameGeneration reports whether every shard evaluated on the same
// generation (by the X-Pivote-Generation response header). Pages from
// mixed generations must never be merged: the result would match no
// single-process output. Responses without the header don't vote.
func sameGeneration(outs []shardOutcome) bool {
	seen := uint64(0)
	have := false
	for _, out := range outs {
		g, ok := out.resp.generation()
		if !ok {
			continue
		}
		if !have {
			seen, have = g, true
		} else if g != seen {
			return false
		}
	}
	return true
}

// genRetries bounds the re-reads while shards adopt a new generation.
// Router-coordinated swaps converge deterministically (the rolling-swap
// commit happens before the compact response returns), so this loop
// only absorbs node-local background compactions; a handful of short
// pauses is plenty, and a cluster that cannot converge in this many
// rounds is genuinely unhealthy.
const genRetries = 25

// genPause briefly decorrelates a re-read from the swap in progress.
func (rt *Router) genPause(ctx context.Context) {
	select {
	case <-time.After(rt.opts.RetryBase/5 + time.Millisecond):
	case <-ctx.Done():
	}
}

// fanMergeState fans a session-scoped GET /api/v1/state to every shard
// and merges the pages, re-reading while a compaction swap leaves the
// shards on different generations (reads are idempotent, so the loop is
// safe). On failure it writes the error response and reports false.
//
// sc is the caller's pooled decode scratch; the merged state ALIASES
// its first element's slices, so the caller must not release sc until
// the merged response has been written.
func (rt *Router) fanMergeState(ctx context.Context, w http.ResponseWriter, rs *routerSession, pathq string, sc *stateScratch) (server.StateV1DTO, bool) {
	for attempt := 0; ; attempt++ {
		outs := rt.fanStateful(ctx, rs, http.MethodGet, pathq, nil, 1)
		if k := firstFailure(outs); k >= 0 {
			failOut(w, outs, k)
			freeOuts(outs)
			return server.StateV1DTO{}, false
		}
		if !sameGeneration(outs) {
			freeOuts(outs)
			if attempt < genRetries {
				mGenRereads.Inc()
				rt.awaitAgreement(ctx)
				continue
			}
			server.WriteV1Error(w, errs.Errf(errs.KindUnavailable,
				"shard: cluster did not converge on one generation"), nil)
			return server.StateV1DTO{}, false
		}
		states := sc.states
		for k, out := range outs {
			if err := decodeStateResp(out.resp, &states[k]); err != nil {
				server.WriteV1Error(w, core.Errf(core.KindInternal, "shard %d: bad state response: %v", k, err), nil)
				freeOuts(outs)
				return server.StateV1DTO{}, false
			}
		}
		freeOuts(outs) // decoded pages hold no references into the bodies
		merged, err := MergeStates(states, rt.opts.TopEntities)
		if err != nil {
			server.WriteV1Error(w, err, nil)
			return server.StateV1DTO{}, false
		}
		return merged, true
	}
}

// statePathFor builds the GET /api/v1/state path that reproduces a
// request's field selection (?include= wins over the body value, like
// the shard nodes).
func statePathFor(r *http.Request, bodyInclude string) string {
	inc := r.URL.Query().Get("include")
	if inc == "" {
		inc = bodyInclude
	}
	if inc == "" {
		return "/api/v1/state"
	}
	return "/api/v1/state?include=" + url.QueryEscape(inc)
}

// opsRequestJSON mirrors the shard nodes' opsRequest body.
type opsRequestJSON struct {
	Ops     []core.OpDTO `json:"ops"`
	Include string       `json:"include,omitempty"`
}

// handleOps fans an op batch to every shard (one replica each, with
// transport failover) and merges the pages. On unanimous success the
// batch joins the session log; on any failure the replicas that DID
// apply it are marked stale so the next request rolls them back by
// replaying the log (which does not contain the batch).
func (rt *Router) handleOps(w http.ResponseWriter, r *http.Request, rs *routerSession) {
	var req opsRequestJSON
	// Same decode, same 4 MB cap as a shard node, so a malformed body
	// produces the identical envelope without any fan-out.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		server.WriteV1Error(w, core.Errf(core.KindInvalid, "bad request body: %v", err), nil)
		return
	}
	// The fan body is encoded lazily, at most once per codec, no matter
	// how many replicas (and repairs) the fan ends up touching.
	hb := opsBody(req.Ops, req.Include)
	pathq := "/api/v1/ops" + rawQuery(r)

	rs.mu.Lock()
	defer rs.mu.Unlock()
	sc := getScratch(len(rt.shards))
	defer putScratch(sc) // merged response aliases sc; release after write
	// No blind resend for ops: a retry after an ambiguous transport
	// failure could double-apply the batch. Failover plus the
	// stale-repair machinery is the retry path instead.
	outs := rt.fanStateful(r.Context(), rs, http.MethodPost, pathq, hb, 0)
	if k := firstFailure(outs); k >= 0 {
		markApplied(rs, outs)
		failOut(w, outs, k)
		freeOuts(outs)
		return
	}
	// Unanimous success: the batch is part of every shard's session, so
	// it joins the log now — whatever happens below, a repair replay must
	// reproduce the sessions as they are. The replicas that served the
	// batch are the only ones holding the grown log.
	rs.log = append(rs.log, req.Ops...)
	rs.refreshLogEnc()
	markSynced(rs, outs, len(rs.log))
	if !sameGeneration(outs) {
		freeOuts(outs)
		// A compaction swap landed mid-fan: the pages come from different
		// generations and must not be merged. The ops ARE applied; re-read
		// the (deterministic) session state until the shards agree on one
		// generation, and answer with that — a valid single-process
		// outcome, since the swap also could have landed just before the
		// batch.
		applied := len(req.Ops)
		merged, ok := rt.fanMergeState(r.Context(), w, rs, statePathFor(r, req.Include), sc)
		if !ok {
			return
		}
		server.WriteJSON(w, http.StatusOK, server.OpsResponse{Applied: applied, State: merged})
		return
	}
	applied := 0
	for k, out := range outs {
		var shardApplied int
		if err := decodeOpsResp(out.resp, &shardApplied, &sc.states[k]); err != nil {
			server.WriteV1Error(w, core.Errf(core.KindInternal, "shard %d: bad ops response: %v", k, err), nil)
			freeOuts(outs)
			return
		}
		if k == 0 {
			applied = shardApplied
		}
	}
	freeOuts(outs)
	merged, err := MergeStates(sc.states, rt.opts.TopEntities)
	if err != nil {
		server.WriteV1Error(w, err, nil)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.OpsResponse{Applied: applied, State: merged})
}

// handleState fans the read to every shard and merges, re-reading while
// a compaction swap leaves the shards on mixed generations.
func (rt *Router) handleState(w http.ResponseWriter, r *http.Request, rs *routerSession) {
	pathq := "/api/v1/state" + rawQuery(r)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	sc := getScratch(len(rt.shards))
	defer putScratch(sc) // merged response aliases sc; release after write
	merged, ok := rt.fanMergeState(r.Context(), w, rs, pathq, sc)
	if !ok {
		return
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleSessionSave proxies the download from shard 0 (any healthy
// replica): every replica's canonical op log is identical (EncodeOp
// canonicalizes entity references to IRIs regardless of how the client
// spelled them), so one replica's file is THE file.
func (rt *Router) handleSessionSave(w http.ResponseWriter, r *http.Request, rs *routerSession) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	resp, _, err := rt.stateful(r.Context(), rs, 0, http.MethodGet, "/api/v1/session", nil, 1)
	if err != nil {
		server.WriteV1Error(w, err, nil)
		return
	}
	relay(w, resp)
	resp.free()
}

// handleSessionLoad fans a session replay to every shard. On unanimous
// success the uploaded file's ops become the router's log; on any
// failure the replicas that did replay are marked stale (they now hold
// the NEW session while the log still describes the old one).
func (rt *Router) handleSessionLoad(w http.ResponseWriter, r *http.Request, rs *routerSession) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		server.WriteV1Error(w, core.Errf(core.KindInvalid, "read body: %v", err), nil)
		return
	}
	// Pre-decode the upload once: a decodable file gets a wire twin for
	// the fan (encoded lazily, shared across replicas); an undecodable
	// one is still fanned verbatim as JSON so the shards produce the
	// byte-identical rejection envelope a single-process server would.
	hb := jsonOnlyBody(raw)
	dtos, derr := core.DecodeSessionDTOs(raw)
	if derr == nil {
		hb.mkWire = func() []byte { return wire.AppendSessionFile(nil, 2, dtos) }
	}
	pathq := "/api/v1/session" + rawQuery(r)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	sc := getScratch(len(rt.shards))
	defer putScratch(sc) // merged response aliases sc; release after write
	// Replay is idempotent, so the transport-level retry is safe here.
	outs := rt.fanStateful(r.Context(), rs, http.MethodPost, pathq, hb, 1)
	if k := firstFailure(outs); k >= 0 {
		markApplied(rs, outs)
		failOut(w, outs, k)
		freeOuts(outs)
		return
	}
	// All shards accepted the replay, so the file decodes; its DTOs are
	// the new log.
	if derr != nil {
		server.WriteV1Error(w, core.Errf(core.KindInternal, "session accepted by shards but not decodable: %v", derr), nil)
		freeOuts(outs)
		return
	}
	rs.log = dtos
	rs.refreshLogEnc()
	// The log was REPLACED, so no stale mark may survive by length
	// coincidence: void everyone, then credit the repliers.
	for k := range rs.synced {
		for r := range rs.synced[k] {
			rs.synced[k][r] = unsynced
		}
	}
	markSynced(rs, outs, len(rs.log))
	if !sameGeneration(outs) {
		freeOuts(outs)
		// Same rule as handleOps: the replay landed everywhere, but the
		// pages straddle a compaction swap — re-read instead of merging.
		merged, ok := rt.fanMergeState(r.Context(), w, rs, statePathFor(r, ""), sc)
		if !ok {
			return
		}
		server.WriteJSON(w, http.StatusOK, merged)
		return
	}
	for k, out := range outs {
		if err := decodeStateResp(out.resp, &sc.states[k]); err != nil {
			server.WriteV1Error(w, core.Errf(core.KindInternal, "shard %d: bad state response: %v", k, err), nil)
			freeOuts(outs)
			return
		}
	}
	freeOuts(outs)
	merged, err := MergeStates(sc.states, rt.opts.TopEntities)
	if err != nil {
		server.WriteV1Error(w, err, nil)
		return
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// ctrlReplica runs a session-independent request against one specific
// replica with the control cookie jar.
func (rt *Router) ctrlReplica(parent, ctx context.Context, k, r int, method, pathq string, body []byte, contentType string, retries int) (*shardResp, error) {
	rt.ctrlMu.Lock()
	cookie := rt.ctrl[k][r]
	rt.ctrlMu.Unlock()
	resp, err := rt.sendReplica(parent, ctx, k, r, method, pathq, body, contentType, cookie, retries)
	if err == nil {
		if c := resp.sessionCookie(); c != "" {
			rt.ctrlMu.Lock()
			rt.ctrl[k][r] = c
			rt.ctrlMu.Unlock()
		}
	}
	return resp, err
}

// ctrlShard runs a session-independent idempotent request against the
// first replica of shard k that delivers an answer, in health order.
// Returns the replica that answered.
func (rt *Router) ctrlShard(ctx context.Context, k int, method, pathq string, body []byte, contentType string) (*shardResp, int, error) {
	reqCtx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
	defer cancel()
	order, dirty := rt.replicaOrder(k, 0)
	if len(order) == 0 {
		return nil, -1, errs.Errf(errs.KindUnavailable,
			"shard %d: all %d replicas diverged, awaiting resync", k, dirty)
	}
	var lastErr error
	for _, r := range order {
		resp, err := rt.ctrlReplica(ctx, reqCtx, k, r, method, pathq, body, contentType, 1)
		if err != nil {
			if errs.KindOf(err) == errs.KindCanceled {
				return nil, r, err
			}
			lastErr = err
			continue
		}
		return resp, r, nil
	}
	return nil, -1, lastErr
}

// handleIngest fans the batch to EVERY replica of every shard,
// serialized so all replicas intern new terms in the same order (TermID
// agreement is what keeps the partitioning consistent). Ingest is
// idempotent by content — re-adding a triple or re-deleting a tombstone
// converges — so a client that sees an unavailable error retries the
// same batch safely.
//
// Per shard the write is acknowledged by the first successful CLEAN
// replica; once acked, every clean sibling that was unreachable or
// whose report disagrees is marked dirty (its store now provably lacks
// an acknowledged write) and is excluded from reads until the next
// rolling swap force-resyncs it. A shard whose clean replicas all
// failed rejects the batch WITHOUT dirtying anyone: an unacknowledged
// write leaves no replica behind. Together with the swap protocol
// (adoption failures dirty the peer, never the primary) this keeps the
// invariant that every shard always has at least one clean replica —
// the one holding every acknowledged write — so a shard can always be
// resynced, and "all replicas diverged" is unreachable under any
// sequence of single faults.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		server.WriteV1Error(w, core.Errf(core.KindInvalid, "read body: %v", err), nil)
		return
	}
	contentType := r.Header.Get("Content-Type")
	rt.ingestMu.Lock()
	defer rt.ingestMu.Unlock()

	type replicaOut struct {
		resp *shardResp
		err  error
	}
	results := make([][]replicaOut, len(rt.shards))
	defer func() {
		// Every replica response is compared (and one relayed) before the
		// handler returns; release all the bodies in one sweep.
		for k := range results {
			for rep := range results[k] {
				results[k][rep].resp.free()
			}
		}
	}()
	reqCtx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for k := range rt.shards {
		results[k] = make([]replicaOut, len(rt.shards[k]))
		for rep := range rt.shards[k] {
			wg.Add(1)
			go func(k, rep int) {
				defer wg.Done()
				resp, err := rt.ctrlReplica(r.Context(), reqCtx, k, rep, http.MethodPost, "/api/v1/ingest", body, contentType, 1)
				results[k][rep] = replicaOut{resp: resp, err: err}
			}(k, rep)
		}
	}
	wg.Wait()

	outs := make([]shardOutcome, len(rt.shards))
	for k := range results {
		ref, firstCleanErr := -1, error(nil)
		allDirty := true
		for rep, ro := range results[k] {
			if rt.health[k][rep].isDirty() {
				continue // a diverged store cannot acknowledge a write
			}
			allDirty = false
			if ro.err == nil && ref == -1 {
				ref = rep
			}
			if ro.err != nil && firstCleanErr == nil {
				firstCleanErr = ro.err
			}
		}
		if ref == -1 {
			// Unacknowledged: the batch failed on this shard and dirties
			// nobody — the clean replicas still agree with each other.
			err := firstCleanErr
			if allDirty {
				err = errs.Errf(errs.KindUnavailable,
					"shard %d: all %d replicas diverged, awaiting resync", k, len(results[k]))
			}
			outs[k] = shardOutcome{err: err, replica: -1}
			continue
		}
		outs[k] = shardOutcome{resp: results[k][ref].resp, replica: ref}
		// Agreement check: every other clean replica must have produced
		// the byte-identical report (the stores are deterministic, so any
		// disagreement means divergence). Failures and disagreements are
		// dirtied — the acknowledged write lives on replica ref, not them.
		for rep, ro := range results[k] {
			h := rt.health[k][rep]
			if rep == ref || h.isDirty() {
				continue
			}
			switch {
			case ro.err != nil:
				h.markDirty("missed ingest batch: " + ro.err.Error())
			case ro.resp.status != results[k][ref].resp.status || string(ro.resp.body) != string(results[k][ref].resp.body):
				h.markDirty("ingest report diverged from replica " + strconv.Itoa(ref))
			}
		}
	}
	if k := firstFailure(outs); k >= 0 {
		failOut(w, outs, k)
		return
	}
	// Every shard holds the same store content, so the reports agree;
	// shard 0's is relayed verbatim.
	relay(w, outs[0].resp)
}

// ReplicaHealthDTO is one replica's entry in the router's live report.
type ReplicaHealthDTO struct {
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// State summarizes serving eligibility: "ok" (in rotation),
	// "cooldown" (breaker open), "stale" (diverged, awaiting resync) or
	// "unreachable".
	State string `json:"state"`
	// Generation is the newest generation this replica reported.
	Generation uint64 `json:"generation"`
	Error      string `json:"error,omitempty"`
	// Stats is the replica's own /api/v1/live body when it answered.
	Stats *server.LiveStats `json:"stats,omitempty"`
}

// ShardHealthDTO is one replica set's entry in the router's live
// report. A shard is healthy while at least one replica serves;
// Degraded reports replicas that are out of rotation (dead, cooling
// down, or awaiting resync).
type ShardHealthDTO struct {
	Shard    int                `json:"shard"`
	Addr     string             `json:"addr"` // first replica, for single-replica compatibility
	Healthy  bool               `json:"healthy"`
	Degraded int                `json:"degraded,omitempty"`
	Error    string             `json:"error,omitempty"`
	Stats    *server.LiveStats  `json:"stats,omitempty"`
	Replicas []ReplicaHealthDTO `json:"replicas"`
}

// RouterInfoDTO summarizes the cluster.
type RouterInfoDTO struct {
	Shards int `json:"shards"`
	// Replicas is the total replica count across all shards.
	Replicas int `json:"replicas"`
	// Healthy counts shards with at least one serving replica.
	Healthy int `json:"healthy"`
	// DegradedReplicas counts replicas out of rotation cluster-wide.
	DegradedReplicas int `json:"degradedReplicas,omitempty"`
	// Committed is the generation the rolling-swap protocol last
	// committed cluster-wide (0 until the first coordinated swap).
	Committed uint64 `json:"committed,omitempty"`
}

// RouterLiveDTO is the router's GET /api/v1/live body: the first
// healthy replica's stats flattened at the top level (so single-process
// monitoring keeps working against a router), plus per-shard,
// per-replica health.
type RouterLiveDTO struct {
	server.LiveStats
	Router      RouterInfoDTO    `json:"router"`
	ShardHealth []ShardHealthDTO `json:"shardHealth"`
}

// handleLive aggregates cluster health from every replica. Unlike every
// other endpoint it never fails outright: a dead replica becomes an
// unhealthy row, because the whole point of a health endpoint is
// answering while things burn.
func (rt *Router) handleLive(w http.ResponseWriter, r *http.Request) {
	out := RouterLiveDTO{
		Router:      RouterInfoDTO{Shards: len(rt.shards), Committed: rt.committedGen()},
		ShardHealth: make([]ShardHealthDTO, len(rt.shards)),
	}
	reqCtx, cancel := context.WithTimeout(r.Context(), rt.opts.RequestTimeout)
	defer cancel()
	type probe struct {
		resp *shardResp
		err  error
	}
	probes := make([][]probe, len(rt.shards))
	defer func() {
		for k := range probes {
			for rep := range probes[k] {
				probes[k][rep].resp.free()
			}
		}
	}()
	var wg sync.WaitGroup
	for k := range rt.shards {
		probes[k] = make([]probe, len(rt.shards[k]))
		for rep := range rt.shards[k] {
			wg.Add(1)
			go func(k, rep int) {
				defer wg.Done()
				resp, err := rt.ctrlReplica(r.Context(), reqCtx, k, rep, http.MethodGet, "/api/v1/live", nil, "", 1)
				probes[k][rep] = probe{resp: resp, err: err}
			}(k, rep)
		}
	}
	wg.Wait()

	statsSet := false
	for k := range rt.shards {
		sh := ShardHealthDTO{
			Shard:    k,
			Addr:     rt.shards[k][0],
			Replicas: make([]ReplicaHealthDTO, len(rt.shards[k])),
		}
		out.Router.Replicas += len(rt.shards[k])
		for rep := range rt.shards[k] {
			h := rt.health[k][rep]
			_, _, dirty, cooling, _, dirtyWhy, gen := h.view()
			rd := ReplicaHealthDTO{Replica: rep, Addr: rt.shards[k][rep], Generation: gen}
			p := probes[k][rep]
			switch {
			case p.err != nil:
				rd.State = "unreachable"
				rd.Error = p.err.Error()
			case p.resp.status != http.StatusOK:
				rd.State = "unreachable"
				rd.Error = strings.TrimSpace(string(p.resp.body))
			default:
				var stats server.LiveStats
				if err := json.Unmarshal(p.resp.body, &stats); err != nil {
					rd.State = "unreachable"
					rd.Error = "bad live response: " + err.Error()
					break
				}
				rd.Healthy = true
				rd.Stats = &stats
				rd.Generation = stats.Generation
				h.observeGen(stats.Generation)
				switch {
				case dirty:
					rd.State = "stale"
					rd.Error = dirtyWhy
				case cooling:
					rd.State = "cooldown"
				default:
					rd.State = "ok"
				}
			}
			if rd.Healthy && rd.State == "ok" {
				if !sh.Healthy {
					sh.Healthy = true
					sh.Stats = rd.Stats
				}
			} else {
				sh.Degraded++
				out.Router.DegradedReplicas++
			}
			sh.Replicas[rep] = rd
		}
		if sh.Healthy {
			out.Router.Healthy++
			if !statsSet {
				out.LiveStats = *sh.Stats
				statsSet = true
			}
		} else {
			sh.Error = "no serving replica"
		}
		out.ShardHealth[k] = sh
	}
	server.WriteJSON(w, http.StatusOK, out)
}
