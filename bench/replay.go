package bench

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/expand"
	"pivote/internal/heatmap"
	"pivote/internal/live"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
	"pivote/internal/server"
	"pivote/internal/shard"
	"pivote/internal/synth"
	"pivote/internal/wire"
)

// Replay sizes: the traced replay times every layer several times over
// per op, so it plays a prefix of the script — one session per slot,
// hub share included — not all of it.
const (
	traceSessions    = Slots
	traceRereads     = 8   // state re-reads traced per parked session
	traceBatches     = 120 // writer batches replayed in-process
	traceCompactTick = CompactEvery * IngestBatchesPerSec
)

// LayerTrace is what the traced in-process replay measured.
type LayerTrace struct {
	Ops     int                // traced session ops
	Metrics map[string]float64 // per-layer metrics sourced from the trace
	// SelfUSPerOp is the budget column: each layer's total self time
	// divided by the traced ops, in µs.
	SelfUSPerOp map[string]float64
}

// replay holds the in-process twins of the process topology.
type replay struct {
	w    Workload
	opts core.Options
	tr   *Tracer // nil during the warm pass

	single http.Handler // single-process node handler
	shared *core.Shared
	nodes  []http.Handler // per-shard node handlers (nil for TopoSingle)
	shards []*core.Shared
	router http.Handler // in-process cluster handler

	// per-op scalars the spans cannot carry
	respBytes, stateBytes, jsonBytes []float64
	routerSelfUS                     []float64
	shardEngUS, singleEngUS          float64
	expansions                       int
}

// sessionTwins is one script session's state on every twin.
type sessionTwins struct {
	cookie        string
	eng           *core.Engine
	nodeCookies   []string
	shardEngs     []*core.Engine
	clusterCookie string
}

func (rp *replay) newSession() *sessionTwins {
	tw := &sessionTwins{eng: core.NewWithShared(rp.shared, rp.opts), nodeCookies: make([]string, len(rp.nodes))}
	for _, sh := range rp.shards {
		// The partition travels with the shared core's generation.
		tw.shardEngs = append(tw.shardEngs, core.NewWithShared(sh, rp.opts))
	}
	return tw
}

// apply drives an engine the way the v1 handlers do.
func apply(ctx context.Context, eng *core.Engine, st *Step) (*core.Result, error) {
	if st.Ops == nil {
		return eng.EvaluateCtx(ctx, core.FieldsAll)
	}
	ops := make([]core.Op, len(st.Ops))
	for i, d := range st.Ops {
		op, err := core.DecodeOp(eng.Graph(), d)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	res, _, err := eng.ApplyOps(ctx, ops, core.FieldsAll)
	return res, err
}

// conditionCandidates is the candidate set of a query with pinned
// feature conditions: the intersection of their extents minus the seeds.
func conditionCandidates(en *semfeat.Engine, seeds []rdf.TermID, feats []semfeat.Feature) []rdf.TermID {
	var inter []rdf.TermID
	for i, f := range feats {
		if i == 0 {
			inter = append(inter, en.Extent(f)...)
			continue
		}
		inter = rdf.IntersectSortedInto(inter[:0], inter, en.Extent(f))
	}
	out := inter[:0]
	for _, c := range inter {
		isSeed := false
		for _, s := range seeds {
			isSeed = isSeed || c == s
		}
		if !isSeed {
			out = append(out, c)
		}
	}
	return out
}

// op replays one step on every twin, recording one span per layer call.
func (rp *replay) op(ctx context.Context, tw *sessionTwins, st *Step, opID int) error {
	tr := rp.tr
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	root := tr.Begin("op", 0, opID)
	defer tr.End(root)

	// server: the real node handler, as one black box.
	var body []byte
	hID := tr.Time("server.handler", root, opID, func() {
		var status int
		status, body, tw.cookie = serve(rp.single, st.Method, st.Path, st.Body, tw.cookie)
		if status != http.StatusOK || sha256.Sum256(body) != st.Want {
			fail(fmt.Errorf("replay: handler answer for %s differs from the oracle (status %d)", st.Op, status))
		}
	})

	// core: the same op on a bare engine; handler − this = server self.
	var res *core.Result
	t0 := time.Now()
	cID := tr.Time("core.apply", hID, opID, func() {
		var err error
		res, err = apply(ctx, tw.eng, st)
		fail(err)
	})
	singleEng := time.Since(t0)
	if res == nil {
		return firstErr
	}
	if st.Ops != nil {
		rp.stages(ctx, tw.eng, res, cID, opID)
	}

	if rp.router == nil {
		if tr != nil {
			rp.respBytes = append(rp.respBytes, float64(len(body)))
		}
		return firstErr
	}

	// shard: the op on every partitioned twin, then the router's own
	// work — wire codec on each per-shard state, and the merge.
	states := make([]server.StateV1DTO, len(rp.shards))
	var shardEng time.Duration
	var slowestNode time.Duration
	for k := range rp.shards {
		t0 := time.Now()
		var sres *core.Result
		tr.Time("shard.engine", root, opID, func() {
			var err error
			sres, err = apply(ctx, tw.shardEngs[k], st)
			fail(err)
		})
		shardEng += time.Since(t0)
		if sres == nil {
			return firstErr
		}
		states[k] = server.ToStateV1DTO(sres.Graph(), sres)

		t0 = time.Now()
		tr.Time("shard.node_handler", root, opID, func() {
			var status int
			status, _, tw.nodeCookies[k] = serve(rp.nodes[k], st.Method, st.Path, st.Body, tw.nodeCookies[k])
			if status != http.StatusOK {
				fail(fmt.Errorf("replay: shard %d node handler → %d", k, status))
			}
		})
		if d := time.Since(t0); d > slowestNode {
			slowestNode = d
		}

		var buf []byte
		tr.Time("wire.encode_state", root, opID, func() { buf = wire.AppendState(nil, &states[k]) })
		var back apidto.StateV1DTO
		tr.Time("wire.decode_state", root, opID, func() { fail(wire.DecodeState(buf, &back)) })
		if tr != nil {
			js, err := json.Marshal(&states[k])
			fail(err)
			rp.stateBytes = append(rp.stateBytes, float64(len(buf)))
			rp.jsonBytes = append(rp.jsonBytes, float64(len(js)))
		}
	}
	tr.Time("shard.merge", root, opID, func() {
		_, err := shard.MergeStates(states, rp.opts.TopEntities)
		fail(err)
	})
	t0 = time.Now()
	tr.Time("shard.cluster_handler", root, opID, func() {
		var status int
		status, body, tw.clusterCookie = serve(rp.router, st.Method, st.Path, st.Body, tw.clusterCookie)
		if status != http.StatusOK || sha256.Sum256(body) != st.Want {
			fail(fmt.Errorf("replay: cluster answer for %s differs from the oracle (status %d)", st.Op, status))
		}
	})
	if tr != nil {
		rp.respBytes = append(rp.respBytes, float64(len(body)))
		self := time.Since(t0) - slowestNode
		if self < 0 {
			self = 0
		}
		rp.routerSelfUS = append(rp.routerSelfUS, us(self))
		rp.shardEngUS += us(shardEng)
		rp.singleEngUS += us(singleEng)
	}
	return firstErr
}

// stages re-runs the engine's stages for the query res answered, through
// their public entry points, as children of the core.apply span.
func (rp *replay) stages(ctx context.Context, eng *core.Engine, res *core.Result, parent, opID int) {
	tr := rp.tr
	q := res.Query
	feats := eng.Features()
	switch {
	case len(q.Seeds) > 0 || len(q.Features) > 0:
		if len(q.Seeds) > 0 {
			tr.Time("semfeat.rank", parent, opID, func() { _, _ = feats.RankCtx(ctx, q.Seeds, rp.opts.TopFeatures) })
		}
		x := expand.New(feats, expand.Options{SameTypeOnly: true})
		if tr != nil {
			rp.expansions++
		}
		tr.Time("expand.sf", parent, opID, func() {
			if len(q.Features) > 0 {
				_, _ = x.ScoreCandidatesCtx(ctx, conditionCandidates(feats, q.Seeds, q.Features), res.Features, rp.opts.TopEntities)
			} else {
				_, _ = x.ExpandWithFeaturesCtx(ctx, q.Seeds, res.Features, rp.opts.TopEntities)
			}
		})
		if res.Fallback {
			tr.Time("expand.ppr", parent, opID, func() {
				_, _ = x.ExpandWithCtx(ctx, expand.MethodPPR, q.Seeds, rp.opts.TopEntities)
			})
		}
	case q.Keywords != "":
		var hits []search.Hit
		tr.Time("search.search", parent, opID, func() {
			hits, _ = eng.Searcher().SearchCtx(ctx, q.Keywords, rp.opts.TopEntities, rp.opts.SearchModel)
		})
		for i := 0; i < len(hits) && i < 3; i++ { // the engine's PseudoSeeds default
			tr.Time("semfeat.rank", parent, opID, func() {
				_, _ = feats.RankCtx(ctx, []rdf.TermID{hits[i].Entity}, rp.opts.TopFeatures)
			})
		}
	}
	tr.Time("heatmap.build", parent, opID, func() { heatmap.Build(feats, res.Entities, res.Features) })
}

// pass plays the script prefix once. Explore workloads trace every step;
// reread workloads play the first ParkStep steps untraced and trace the
// re-read traceRereads times.
func (rp *replay) pass(ctx context.Context, sc *Script, tr *Tracer) (int, error) {
	ops := 0
	for i := 0; i < traceSessions && i < len(sc.Sessions); i++ {
		tw := rp.newSession()
		for j := range sc.Sessions[i].Steps {
			st := &sc.Sessions[i].Steps[j]
			rp.tr = tr
			repeat := 1
			if rp.w.Reread {
				switch {
				case j < ParkStep:
					rp.tr = nil
				case j == ParkStep:
					repeat = traceRereads
				default:
					continue
				}
			}
			for r := 0; r < repeat; r++ {
				if err := rp.op(ctx, tw, st, i*StepsPerSession+j); err != nil {
					return ops, err
				}
				if rp.tr != nil {
					ops++
				}
			}
		}
	}
	return ops, nil
}

// TraceReplay re-plays the workload's script in-process, timing every
// layer from outside through its public functions, and writes the spans
// to outDir/trace-<workload>.json.
func TraceReplay(ctx context.Context, w Workload, sc *Script, o *Oracle, seed int64, outDir string) (*LayerTrace, error) {
	tr := NewTracer()
	opts := EngineOptions()
	rp := &replay{w: w, opts: opts}

	// Set-up layers: what every process does before it listens.
	var gen *synth.Result
	tr.Time("synth.generate", 0, -1, func() {
		cfg := synth.Scaled(w.Scale)
		cfg.Seed = GraphSeed
		gen = synth.Generate(cfg)
	})
	g := gen.Graph
	sID := tr.Time("core.new_shared", 0, -1, func() { rp.shared = core.NewLiveShared(g, opts) })
	defer rp.shared.Close()
	tr.Time("index.build", sID, -1, func() { search.BuildIndex(g) })
	tr.Time("semfeat.catalog_build", sID, -1, func() { semfeat.NewCatalog(g) })
	rp.single = server.NewMultiShared(rp.shared, opts, 0).Handler()

	if w.Topo != TopoSingle {
		cfg := shard.ClusterConfig{Shards: 2, Opts: opts, Live: true}
		if w.Topo == TopoReplicas2 {
			cfg.Shards, cfg.Replicas = 1, 2
		}
		cl := shard.NewCluster(g, cfg)
		defer cl.Close()
		rp.router = cl.Handler()
		for k := range cl.Nodes {
			rp.nodes = append(rp.nodes, cl.Nodes[k][0].Handler())
			rp.shards = append(rp.shards, cl.Nodes[k][0].Shared())
		}
	}

	// One untraced pass fills the shared feature caches, as the
	// networked run's warm-up does; the second is recorded.
	if _, err := rp.pass(ctx, sc, nil); err != nil {
		return nil, err
	}
	ops, err := rp.pass(ctx, sc, tr)
	if err != nil {
		return nil, err
	}

	lt := &LayerTrace{Ops: ops, Metrics: map[string]float64{}, SelfUSPerOp: map[string]float64{}}
	if w.Ingest {
		if err := rp.writes(tr, o, seed, outDir, lt.Metrics); err != nil {
			return nil, err
		}
	}
	if err := tr.WriteFile(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	rp.summarize(aggregate(tr.Spans), lt)
	return lt, nil
}

// writes replays the writer's batches on the live store: ingest, forced
// compaction, and the snapshot write + open a replica swap pays.
func (rp *replay) writes(tr *Tracer, o *Oracle, seed int64, outDir string, m map[string]float64) error {
	ls := rp.shared.Live()
	snapPath := filepath.Join(outDir, "trace-"+rp.w.Name+live.SnapshotExt)
	defer os.Remove(snapPath)
	for n := 0; n < traceBatches; n++ {
		if n > 0 && n%traceCompactTick == 0 {
			var gen *live.Generation
			var err error
			tr.Time("live.compact", 0, -1, func() { gen, _, err = ls.CompactNow() })
			if err != nil {
				return fmt.Errorf("replay: compact: %w", err)
			}
			tr.Time("snap.write", 0, -1, func() { err = live.WriteGenerationFile(gen, snapPath) })
			if err != nil {
				return fmt.Errorf("replay: snapshot write: %w", err)
			}
			if fi, err := os.Stat(snapPath); err == nil {
				m["snap.bytes"] = float64(fi.Size())
			}
			var opened *live.Generation
			tr.Time("snap.open", 0, -1, func() { opened, err = live.OpenGeneration(snapPath) })
			if err != nil {
				return fmt.Errorf("replay: snapshot open: %w", err)
			}
			if err := opened.Mapping().Close(); err != nil {
				return fmt.Errorf("replay: snapshot close: %w", err)
			}
		}
		b := o.IngestBatch(seed, n)
		var err error
		var del io.Reader // stays a nil interface when nothing is tombstoned
		if b.Remove != "" {
			del = strings.NewReader(b.Remove)
		}
		tr.Time("live.ingest", 0, -1, func() { _, err = ls.IngestNTriples(strings.NewReader(b.Add), del) })
		if err != nil {
			return fmt.Errorf("replay: ingest batch %d: %w", n, err)
		}
	}
	return nil
}

// stageLayers maps the budget rows that are sums of stage calls to the
// spans whose self time they own.
var stageLayers = []struct {
	Layer string
	Spans []string
}{
	{"search", []string{"search.search"}},
	{"semfeat", []string{"semfeat.rank"}},
	{"expand.sf", []string{"expand.sf"}},
	{"expand.ppr", []string{"expand.ppr"}},
	{"heatmap", []string{"heatmap.build"}},
	{"wire", []string{"wire.encode_state", "wire.decode_state"}},
	{"shard.merge", []string{"shard.merge"}},
}

func (rp *replay) summarize(st spanStats, lt *LayerTrace) {
	m := lt.Metrics
	medMS := func(name string) float64 { return medianOrZero(st.durUS[name]) / 1000 }
	m["synth.generate_ms"] = medMS("synth.generate")
	m["index.build_ms"] = medMS("index.build")
	m["semfeat.catalog_build_ms"] = medMS("semfeat.catalog_build")
	m["core.new_shared_ms"] = medMS("core.new_shared")

	m["core.apply_us"] = medianOrZero(st.durUS["core.apply"])
	m["core.self_us"] = medianOrZero(st.selfUS["core.apply"])
	m["search.search_us"] = medianOrZero(st.durUS["search.search"])
	m["search.calls"] = float64(len(st.durUS["search.search"]))
	m["semfeat.rank_us"] = medianOrZero(st.durUS["semfeat.rank"])
	m["semfeat.calls"] = float64(len(st.durUS["semfeat.rank"]))
	m["expand.sf_us"] = medianOrZero(st.durUS["expand.sf"])
	m["expand.ppr_us"] = medianOrZero(st.durUS["expand.ppr"])
	m["expand.ppr_calls"] = float64(len(st.durUS["expand.ppr"]))
	m["expand.fallback_ratio"] = 0
	if rp.expansions > 0 {
		m["expand.fallback_ratio"] = float64(len(st.durUS["expand.ppr"])) / float64(rp.expansions)
	}
	m["heatmap.build_us"] = medianOrZero(st.durUS["heatmap.build"])
	m["server.handler_us"] = medianOrZero(st.durUS["server.handler"])
	m["server.self_us"] = medianOrZero(st.selfUS["server.handler"])
	m["server.resp_bytes"] = medianOrZero(rp.respBytes)

	m["wire.encode_state_us"] = medianOrZero(st.durUS["wire.encode_state"])
	m["wire.decode_state_us"] = medianOrZero(st.durUS["wire.decode_state"])
	m["wire.calls"] = float64(len(st.durUS["wire.encode_state"]) + len(st.durUS["wire.decode_state"]))
	m["wire.state_bytes"] = medianOrZero(rp.stateBytes)
	m["wire.json_state_bytes"] = medianOrZero(rp.jsonBytes)
	m["shard.merge_us"] = medianOrZero(st.durUS["shard.merge"])
	m["shard.merge_calls"] = float64(len(st.durUS["shard.merge"]))
	m["shard.router_self_us"] = medianOrZero(rp.routerSelfUS)
	m["shard.work_amplification"] = 0
	if rp.singleEngUS > 0 {
		m["shard.work_amplification"] = rp.shardEngUS / rp.singleEngUS
	}

	m["live.ingest_us"] = medianOrZero(st.durUS["live.ingest"])
	m["live.ingest_calls"] = float64(len(st.durUS["live.ingest"]))
	m["live.compact_ms"] = medMS("live.compact")
	m["snap.write_ms"] = medMS("snap.write")
	m["snap.open_ms"] = medMS("snap.open")
	if _, ok := m["snap.bytes"]; !ok {
		m["snap.bytes"] = 0
	}

	if lt.Ops == 0 {
		return
	}
	for _, l := range stageLayers {
		var total float64
		for _, name := range l.Spans {
			total += sum(st.selfUS[name])
		}
		lt.SelfUSPerOp[l.Layer] = total / float64(lt.Ops)
	}
	// The wrapping layers' self times are differences between two
	// separate executions of the op; on a 100 ms fallback op the PPR's
	// own run-to-run wobble (a few ms) would land in them and swamp
	// their real cost, which hardly depends on the op. Their rows are
	// medians, not totals.
	lt.SelfUSPerOp["server"] = m["server.self_us"]
	lt.SelfUSPerOp["core"] = m["core.self_us"]
	lt.SelfUSPerOp["shard.router"] = m["shard.router_self_us"]
}
