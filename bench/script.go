package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/server"
	"pivote/internal/synth"
)

// GraphSeed is the synthetic-KG seed every server process and the
// oracle build with; the workload seed only drives which entities the
// sessions touch, so the program receives nothing but generated inputs.
const GraphSeed = 42

// Class is the latency class of one op, decided by the oracle's answer.
type Class uint8

const (
	ClassSubmit      Class = iota // submit
	ClassInvestigate              // add-entity / remove-entity / add-feature on the semantic-feature path
	ClassPivot                    // pivot on the semantic-feature path
	ClassFallback                 // any mutating op whose oracle page is a PPR-fallback page
	ClassReread                   // GET /api/v1/state on an unchanged session
	ClassIngest                   // POST /api/v1/ingest (writer)
	ClassCompact                  // POST /api/v1/compact (writer)
	numClasses
)

var classNames = [numClasses]string{"submit", "investigate", "pivot", "fallback", "reread", "ingest", "compact"}

func (c Class) String() string { return classNames[c] }

// StepsPerSession is the length of the Fig. 4 exploration path.
const StepsPerSession = 8

// ParkStep is the index of the GET /api/v1/state re-read: reread
// workloads park sessions just before it and repeat it.
const ParkStep = 4

// Step is one scripted request with the oracle's expected answer.
type Step struct {
	Op     string // op kind, or "state"
	Class  Class
	Method string
	Path   string
	Body   []byte
	Want   [sha256.Size]byte // SHA-256 of the single-process response body
	// Ops is Body's op list, kept for the traced replay (which drives
	// engines directly); empty for the state re-read.
	Ops []core.OpDTO
}

// Session is one fresh-cookie exploration path.
type Session struct {
	Hub   bool
	Steps [StepsPerSession]Step
}

// Script is everything the load generator sends: a pure function of
// (scale, seed, session count).
type Script struct {
	Sessions []Session
	// Digest covers every request byte and every expected hash, so two
	// scripts are identical iff their digests are.
	Digest [sha256.Size]byte
}

// Oracle is the in-process single-process server whose answers are the
// system's contract: every networked response must be byte-identical to
// what it returns for the same (session, step).
type Oracle struct {
	Graph *kg.Graph
	Man   synth.Manifest
	h     http.Handler
}

// EngineOptions are the options every process shape runs with (the
// cmd/pivote flag defaults).
func EngineOptions() core.Options { return core.Options{TopEntities: 20, TopFeatures: 15} }

// NewOracle builds the graph the servers build and a single-process
// multi-session server over it.
func NewOracle(scale int) *Oracle {
	cfg := synth.Scaled(scale)
	cfg.Seed = GraphSeed
	r := synth.Generate(cfg)
	return &Oracle{Graph: r.Graph, Man: r.Manifest, h: server.NewMulti(r.Graph, EngineOptions(), 0).Handler()}
}

// serve plays one request against an in-process handler and returns the
// status, body and the session cookie ("name=value") to send next.
func serve(h http.Handler, method, path string, body []byte, cookie string) (int, []byte, string) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), cookieOf(rec.Header(), cookie)
}

// cookieOf extracts the session cookie a response pinned, falling back
// to the one the request carried.
func cookieOf(h http.Header, prev string) string {
	for _, sc := range h.Values("Set-Cookie") {
		if nv, _, _ := strings.Cut(sc, ";"); strings.HasPrefix(nv, "pivote_session=") {
			return nv
		}
	}
	return prev
}

func opsBody(ops ...core.OpDTO) []byte {
	b, err := json.Marshal(struct {
		Ops []core.OpDTO `json:"ops"`
	}{ops})
	if err != nil {
		panic(err) // OpDTO is plain strings and ints
	}
	return b
}

// sessionGen plays one session against the oracle, choosing follow-up
// ops from the results.
type sessionGen struct {
	o      *Oracle
	cookie string
	sess   Session
	n      int
	state  apidto.StateV1DTO // latest result page
}

// play sends the next step and records it with the oracle's answer.
func (sg *sessionGen) play(op string, dto *core.OpDTO) error {
	st := Step{Op: op, Method: http.MethodGet, Path: "/api/v1/state"}
	if dto != nil {
		st.Method, st.Path = http.MethodPost, "/api/v1/ops"
		st.Ops = []core.OpDTO{*dto}
		st.Body = opsBody(*dto)
	}
	status, body, cookie := serve(sg.o.h, st.Method, st.Path, st.Body, sg.cookie)
	if status != http.StatusOK {
		return fmt.Errorf("oracle: %s → %d: %s", op, status, bytes.TrimSpace(body))
	}
	sg.cookie = cookie
	st.Want = sha256.Sum256(body)
	var page apidto.StateV1DTO
	if dto != nil {
		var resp apidto.OpsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("oracle: decode %s response: %v", op, err)
		}
		page = resp.State
	} else if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("oracle: decode state: %v", err)
	}
	switch {
	case dto == nil:
		st.Class = ClassReread
	case page.Fallback:
		st.Class = ClassFallback
	case op == string(core.OpKindSubmit):
		st.Class = ClassSubmit
	case op == string(core.OpKindPivot):
		st.Class = ClassPivot
	default:
		st.Class = ClassInvestigate
	}
	if (st.Class == ClassFallback) != (sg.sess.Hub && hubFallbackStep[sg.n]) {
		return errRedraw
	}
	sg.state = page
	sg.sess.Steps[sg.n] = st
	sg.n++
	return nil
}

func entityOp(kind core.OpKind, id uint32) *core.OpDTO {
	return &core.OpDTO{Op: string(kind), EntityID: id}
}

// errRedraw marks a draw whose entities cannot carry the whole path
// (too few hits, no feature, no entity of another type) or whose class
// pattern is not the session kind's; the caller draws again, so the
// script stays a pure function of the seed.
var errRedraw = fmt.Errorf("redraw")

// otherType finds an entity to pivot to: an actor when the session is
// not about actors (the paper's film → actor pivot, which stays on the
// semantic-feature path), otherwise the first candidate whose primary
// type differs from typ.
func (sg *sessionGen) otherType(typ string, ents []apidto.EntityDTO, feats []apidto.FeatureDTO) (uint32, bool) {
	for _, e := range ents {
		if e.Type == "Actor" && typ != "Actor" {
			return e.ID, true
		}
	}
	for _, e := range ents {
		if e.Type != "" && e.Type != typ {
			return e.ID, true
		}
	}
	g := sg.o.Graph
	for _, f := range feats {
		if t := g.PrimaryType(rdf.TermID(f.AnchorID)); t != rdf.NoTerm && g.Name(t) != typ {
			return f.AnchorID, true
		}
	}
	return 0, false
}

// hubFallbackStep is the class pattern a hub session must show: both
// add-entity steps and the pivot back land on hub entities whose
// semantic-feature extents hold no same-type candidate, so they take the
// PPR fallback. Plain sessions must show none. Fixing the pattern keeps
// the op mix — the input property latency depends on most — identical
// across seeds; a draw that breaks it is redrawn at the first step that
// does.
var hubFallbackStep = [StepsPerSession]bool{1: true, 2: true, 7: true}

// session plays the paper's Fig. 4 path: submit → add-entity (top hit)
// → add-entity (3rd hit) → add-feature (top feature) → state re-read →
// remove-entity → pivot to another type → pivot back.
func (o *Oracle) session(rng *rand.Rand, hub bool) (Session, error) {
	sg := &sessionGen{o: o}
	sg.sess.Hub = hub
	g := o.Graph
	keywords := func(id rdf.TermID) *core.OpDTO {
		return &core.OpDTO{Op: string(core.OpKindSubmit), Keywords: g.Name(id)}
	}

	var first, second uint32
	var firstType string
	var submitPage apidto.StateV1DTO
	if hub {
		kinds := [][]rdf.TermID{o.Man.Genres, o.Man.Awards, o.Man.Countries}
		pool := kinds[rng.Intn(len(kinds))]
		i := rng.Intn(len(pool))
		j := (i + 1 + rng.Intn(len(pool)-1)) % len(pool)
		first, second = uint32(pool[i]), uint32(pool[j])
		firstType = g.Name(g.PrimaryType(pool[i]))
		if err := sg.play("submit", keywords(pool[i])); err != nil {
			return Session{}, err
		}
		submitPage = sg.state
		if err := sg.play("add-entity", entityOp(core.OpKindAddSeed, first)); err != nil {
			return Session{}, err
		}
	} else {
		if err := sg.play("submit", keywords(o.Man.Films[rng.Intn(len(o.Man.Films))])); err != nil {
			return Session{}, err
		}
		submitPage = sg.state
		if len(submitPage.Entities) == 0 {
			return Session{}, errRedraw
		}
		first, firstType = submitPage.Entities[0].ID, submitPage.Entities[0].Type
		if err := sg.play("add-entity", entityOp(core.OpKindAddSeed, first)); err != nil {
			return Session{}, err
		}
		if len(sg.state.Entities) < 3 {
			return Session{}, errRedraw
		}
		second = sg.state.Entities[2].ID
	}
	onePage := sg.state
	if err := sg.play("add-entity", entityOp(core.OpKindAddSeed, second)); err != nil {
		return Session{}, err
	}
	feats := sg.state.Features
	if len(feats) == 0 {
		feats = onePage.Features
	}
	if len(feats) == 0 {
		return Session{}, errRedraw
	}
	feature := &core.OpDTO{Op: string(core.OpKindAddFeature), Feature: feats[0].Label}
	if err := sg.play("add-feature", feature); err != nil {
		return Session{}, err
	}
	if err := sg.play("state", nil); err != nil {
		return Session{}, err
	}
	if err := sg.play("remove-entity", entityOp(core.OpKindRemoveSeed, second)); err != nil {
		return Session{}, err
	}
	target, ok := sg.otherType(firstType, append(submitPage.Entities, sg.state.Entities...), sg.state.Features)
	if !ok {
		return Session{}, errRedraw
	}
	if err := sg.play("pivot", entityOp(core.OpKindPivot, target)); err != nil {
		return Session{}, err
	}
	if err := sg.play("pivot", entityOp(core.OpKindPivot, first)); err != nil {
		return Session{}, err
	}

	return sg.sess, nil
}

// IsHub reports whether script session i is a hub session: one in four.
func IsHub(i int) bool { return i%4 == 3 }

// maxRedraws bounds the rejection sampling per session; hitting it means
// the graph cannot carry the scripted path at all.
const maxRedraws = 200

// GenerateScript plays n sessions against the oracle. Session i draws
// from its own generator seeded by (seed, i), so the sessions can be
// played on every core without the schedule leaking into the script.
func (o *Oracle) GenerateScript(seed int64, n int) (*Script, error) {
	sc := &Script{Sessions: make([]Session, n)}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
				errs[i] = errRedraw
				for try := 0; errs[i] == errRedraw && try < maxRedraws; try++ {
					sc.Sessions[i], errs[i] = o.session(rng, IsHub(i))
				}
			}
		}()
	}
	wg.Wait()
	h := sha256.New()
	for i, s := range sc.Sessions {
		if errs[i] != nil {
			return nil, fmt.Errorf("script session %d (hub=%v): %w", i, IsHub(i), errs[i])
		}
		for _, st := range s.Steps {
			fmt.Fprintf(h, "%s %s %s\n", st.Method, st.Path, st.Body)
			h.Write(st.Want[:])
		}
	}
	copy(sc.Digest[:], h.Sum(nil))
	return sc, nil
}

// Batch is one writer request of an ingest workload.
type Batch struct {
	Body        []byte // the POST /api/v1/ingest JSON body
	Add, Remove string // the N-Triples it carries
	Adds, Dels  int
}

// tombstoneLag is how many batches later a film's triples are
// tombstoned again.
const tombstoneLag = 20

// filmTriples renders the 8 triples of synthetic film (n, j): new films
// wired to existing actors, a director, a genre and a country.
func (o *Oracle) filmTriples(seed int64, n, j int) string {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)*16 + int64(j)))
	iri := func(id rdf.TermID) string { return "<" + o.Graph.Dict().Term(id).Value + ">" }
	film := fmt.Sprintf("<%s>", kg.ResourceIRI(fmt.Sprintf("Bench_Film_%d_%d_%d", seed, n, j)))
	var b strings.Builder
	fmt.Fprintf(&b, "%s <%s> <http://pivote.dev/ontology/class/Film> .\n", film, kg.IRIType)
	fmt.Fprintf(&b, "%s <%s> \"Bench Film %d %d %d\" .\n", film, kg.IRILabel, seed, n, j)
	p := o.Man.Preds
	a := rng.Intn(len(o.Man.Actors))
	for k := 0; k < 3; k++ { // three distinct actors
		fmt.Fprintf(&b, "%s %s %s .\n", film, iri(p.Starring), iri(o.Man.Actors[(a+k)%len(o.Man.Actors)]))
	}
	fmt.Fprintf(&b, "%s %s %s .\n", film, iri(p.Director), iri(o.Man.Directors[rng.Intn(len(o.Man.Directors))]))
	fmt.Fprintf(&b, "%s %s %s .\n", film, iri(p.Genre), iri(o.Man.Genres[rng.Intn(len(o.Man.Genres))]))
	fmt.Fprintf(&b, "%s %s %s .\n", film, iri(p.Country), iri(o.Man.Countries[rng.Intn(len(o.Man.Countries))]))
	return b.String()
}

const triplesPerFilm = 8

// IngestBatch is writer batch n: IngestBatchTriples triples — three new
// films, plus a fourth until tombstoneLag batches exist and from then on
// the tombstones of film 0 of batch n-tombstoneLag. Every add is a new
// triple and every tombstone hits a live one, so the store's triple
// count is exactly base + adds − tombstones.
func (o *Oracle) IngestBatch(seed int64, n int) Batch {
	const films = IngestBatchTriples/triplesPerFilm - 1
	var req struct {
		Add    string `json:"add,omitempty"`
		Remove string `json:"remove,omitempty"`
	}
	bt := Batch{Adds: films * triplesPerFilm}
	for j := 0; j < films; j++ {
		req.Add += o.filmTriples(seed, n, j)
	}
	if n < tombstoneLag {
		req.Add += o.filmTriples(seed, n, films)
		bt.Adds += triplesPerFilm
	} else {
		req.Remove = o.filmTriples(seed, n-tombstoneLag, 0)
		bt.Dels = triplesPerFilm
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // two strings
	}
	bt.Body, bt.Add, bt.Remove = b, req.Add, req.Remove
	return bt
}
