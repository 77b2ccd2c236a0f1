package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// Config is one benchmark run's settings.
type Config struct {
	// Start brings a workload's topology up; the command passes a closure
	// over StartTopology and the built cmd/pivote binary.
	Start   func(ctx context.Context, w Workload) (*Topology, error)
	OutDir  string // logs, traces and BENCH_load.json
	Seed    int64
	Seconds int  // measured seconds, split into paced / saturate
	Trace   bool // per-layer run: /metrics deltas, /proc split and the traced replay instead of the saturate phase
	// Sessions is the number of distinct script sessions the phases
	// cycle through.
	Sessions int
}

// Phase shares of Config.Seconds: ops are recorded in the paced (open
// loop) and saturate (closed loop) shares. Warm-up comes on top and is
// untimed: every script session is played once, the slots are staggered
// (or parked), and the paced schedule runs for pacedWarm before its
// samples count.
const (
	pacedShare    = 0.60
	saturateShare = 0.40
	pacedWarm     = time.Second
	// setupReps is how many times the topology is started per run; setup_s
	// is the median.
	setupReps = 3
	// rssEvery is the sampling period of rss_mb over the paced window; a
	// single end-of-phase reading catches the heap at a random point of
	// its GC cycle.
	rssEvery = 200 * time.Millisecond
)

// Generator-health limits: past these a run's numbers describe the load
// generator, not the system, and the run is marked invalid.
const (
	// MaxSchedLagP95 is the limit on how late the dispatcher released the
	// 95th-percentile op: the issue's 5 ms, applied at the highest quantile
	// an end-to-end metric gates (op_p95_ms). Lateness is booked against
	// the system, so lateness at p95 moves a gated number; lateness
	// confined to the top 1 % — one 150 ms stall of a shared host in a
	// 14 s window, seen once in 40 runs — moves none of them, and shows in
	// the traced run as loadgen.sched_lag_p99_ms beside client.op_p99_ms.
	MaxSchedLagP95 = 5 * time.Millisecond
	// SLO is the "feels instantaneous" limit for pivot and investigate
	// ops; loadgen.slo_miss_ratio reports the share that missed it.
	SLO = 100 * time.Millisecond
)

// Run is one workload's result.
type Run struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"` // no failed op and every invariant held
	Invalid   []string           `json:"invalid,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Budget is each layer's mean self time per op in µs (traced runs).
	Budget map[string]float64 `json:"budget_us_per_op,omitempty"`
	// Samples is the paced-phase sample count and TailQ the quantile
	// client.op_p99_ms actually reports in traced runs (lower than 0.99
	// when fewer than ten samples would lie beyond p99).
	Samples int     `json:"samples"`
	TailQ   float64 `json:"tail_quantile"`

	NProc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Conns      int `json:"conns"`
}

// conns is the number of session connections: one per core the
// generator may use, and no more than the sessions in flight — a session
// never has two requests outstanding, so further connections would idle
// (and, on reread workloads, own no parked session to saturate with).
func conns() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU(), Slots)
}

// saturateSlots gives each saturate client its sessions. Reread workloads
// share the parked slots out (client c takes slots c, c+conns, …; none
// when conns exceeds the slots); the others play fresh script sessions,
// numbered on from the clients' first ones.
func saturateSlots(slots []*slot, conns int, reread bool) func(client int) []*slot {
	if reread {
		return func(c int) []*slot {
			var mine []*slot
			for s := c; s < len(slots); s += conns {
				mine = append(mine, slots[s])
			}
			return mine
		}
	}
	var ctr atomic.Int64
	ctr.Store(int64(conns) - 1)
	return func(c int) []*slot {
		return []*slot{{sess: c, next: func() int { return int(ctr.Add(1)) }}}
	}
}

func (c Config) share(s float64) time.Duration {
	return time.Duration(float64(c.Seconds) * s * float64(time.Second))
}

// RunWorkload sets the topology up, drives it and reports. The returned
// Run is complete whenever err is nil, including for invalid runs.
func RunWorkload(ctx context.Context, cfg Config, w Workload) (*Run, error) {
	run := &Run{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: map[string]float64{},
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: conns(),
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}

	oracle := NewOracle(w.Scale)
	script, err := oracle.GenerateScript(cfg.Seed, cfg.Sessions)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: process start until every node answers
	// /api/v1/live. Only the last topology is kept.
	var topo *Topology
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if topo != nil {
			topo.Stop()
		}
		t0 := time.Now()
		if topo, err = cfg.Start(ctx, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer topo.Stop()
	run.Metrics["setup_s"] = Median(setups)

	lg := &LoadGen{Base: topo.Front, Script: script, Hash: !w.Ingest, Conns: run.Conns}
	if err := lg.PlayAll(ctx); err != nil {
		return nil, err
	}
	slots := NewSlots()
	stagger := func(s int) int { return s % StepsPerSession }
	if w.Reread {
		stagger = func(int) int { return ParkStep }
	}
	if err := lg.Preplay(ctx, slots, stagger); err != nil {
		return nil, err
	}
	for _, sl := range slots {
		sl.parked = w.Reread
	}

	ctl := &http.Client{Timeout: OpTimeout}
	defer ctl.CloseIdleConnections()
	var baseLive *LiveReport
	var writer chan WriterResult
	stopWriter := make(chan struct{})
	if w.Ingest {
		cookie := ""
		if baseLive, err = getLive(ctx, ctl, topo.Front, &cookie); err != nil {
			return nil, err
		}
		writer = make(chan WriterResult, 1)
		go func() { writer <- lg.Writer(ctx, oracle, cfg.Seed, stopWriter) }()
	}

	var scrapeBefore map[*Node]Metrics
	if cfg.Trace {
		if scrapeBefore, err = scrapeAll(ctx, ctl, topo); err != nil {
			return nil, err
		}
	}

	// Paced phase. CPU is read when the measured window opens and after
	// its last op answered.
	var procStart ProcTotals
	var selfStart ProcSample
	var procErr error
	stopRSS := make(chan struct{})
	rss := make(chan rssSeries, 1)
	paced := lg.Paced(ctx, slots, w.Rate, pacedWarm, cfg.share(pacedShare), func() {
		procStart, procErr = topo.ReadProcs()
		if procErr == nil {
			selfStart, procErr = ReadProc(os.Getpid())
		}
		go func() { rss <- sampleRSS(topo, stopRSS) }()
	})
	procEnd, err := topo.ReadProcs()
	if err == nil {
		err = procErr
	}
	if err != nil {
		return nil, err
	}
	close(stopRSS)
	mem := <-rss
	if len(mem.nodes) == 0 { // a window shorter than rssEvery
		mem = rssSeries{router: []float64{procEnd.Router.RSSMB}, nodes: []float64{procEnd.Nodes.RSSMB}}
	}
	selfEnd, err := ReadProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	if err := topo.Exited(); err != nil {
		return nil, err
	}

	var scraped Metrics   // node processes, summed
	var scrapedRt Metrics // the router
	if cfg.Trace {
		after, err := scrapeAll(ctx, ctl, topo)
		if err != nil {
			return nil, err
		}
		scraped, scrapedRt = Metrics{}, Metrics{}
		for n, m := range after {
			if n.Router {
				scrapedRt.Add(m.Sub(scrapeBefore[n]))
			} else {
				scraped.Add(m.Sub(scrapeBefore[n]))
			}
		}
	}

	// Saturate phase: closed loop on fresh sessions (parked ones for
	// reread workloads), one client per connection.
	var closed ClosedResult
	if !cfg.Trace {
		closed = lg.Closed(ctx, cfg.share(saturateShare), saturateSlots(slots, run.Conns, w.Reread))
		if err := topo.Exited(); err != nil {
			return nil, err
		}
	}

	all := append(append([]Sample(nil), paced.Samples...), closed.Samples...)
	run.Correct = true
	var written WriterResult
	if w.Ingest {
		close(stopWriter)
		written = <-writer
		all = append(all, written.Samples...)
		if problems := checkIngest(ctx, ctl, topo.Front, baseLive, written); len(problems) > 0 {
			run.Correct = false
			run.Failures = append(run.Failures, problems...)
		}
	}
	for _, s := range all {
		run.Attempted++
		if !s.OK {
			run.Failed++
		}
	}
	if run.Failed > 0 {
		run.Correct = false
	}
	run.Failures = append(run.Failures, lg.Failures()...)
	if run.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op was attempted in %d s", w.Name, cfg.Seconds)
	}

	// Client-observed metrics.
	lat := latencies(paced.Samples)
	opMS := msOf(lat[numClasses])
	run.Samples = len(opMS)
	if run.Samples == 0 {
		return nil, fmt.Errorf("%s: the paced phase recorded no op", w.Name)
	}
	ops := float64(run.Samples)
	run.Metrics["op_p50_ms"] = Percentile(opMS, 0.5)
	run.Metrics["op_p95_ms"] = Percentile(opMS, 0.95)
	nodeCPU := procEnd.Nodes.CPU - procStart.Nodes.CPU
	routerCPU := procEnd.Router.CPU - procStart.Router.CPU
	run.Metrics["cpu_ms_per_op"] = ms(nodeCPU+routerCPU) / ops
	run.Metrics["rss_mb"] = Median(mem.nodes) + Median(mem.router)
	if !cfg.Trace {
		run.Metrics["throughput_ops_s"] = float64(len(closed.Samples)) / closed.Dur.Seconds()
	}

	lagMS := msOf(paced.Lag)
	lagP95 := Percentile(lagMS, 0.95)
	run.Metrics["loadgen.sched_lag_p95_ms"] = lagP95
	run.Metrics["loadgen.sched_lag_p99_ms"] = Percentile(lagMS, 0.99)
	if lagP95 > ms(MaxSchedLagP95) {
		run.Invalid = append(run.Invalid, fmt.Sprintf("loadgen.sched_lag_p95_ms %.2f exceeds %.0f ms", lagP95, ms(MaxSchedLagP95)))
	}
	if paced.BacklogEnd > paced.BacklogMid && paced.BacklogEnd > Slots {
		run.Invalid = append(run.Invalid, fmt.Sprintf("backlog grew: %d due-but-unsent ops at the end of the paced phase, %d at its midpoint", paced.BacklogEnd, paced.BacklogMid))
	}
	if !run.Correct {
		run.Invalid = append(run.Invalid, fmt.Sprintf("%d of %d ops failed or an invariant broke", run.Failed, run.Attempted))
	}
	if !cfg.Trace {
		return run, nil
	}

	// Per-layer metrics: client classes, generator health, /proc split,
	// /metrics deltas, then the traced replay.
	m := run.Metrics
	inWindow := func(s Sample) bool { return !s.Due.Before(paced.Start) && s.Due.Before(paced.End) }
	for _, s := range written.Samples {
		if inWindow(s) && s.OK {
			lat[s.Class] = append(lat[s.Class], s.Lat)
		}
	}
	for c := Class(0); c < numClasses; c++ {
		m["client."+c.String()+"_p50_ms"] = 0
		if xs := msOf(lat[c]); len(xs) > 0 {
			m["client."+c.String()+"_p50_ms"] = Percentile(xs, 0.5)
		}
	}
	m["client.op_mean_ms"] = Mean(opMS)
	m["client.op_p99_ms"], run.TailQ = Tail(opMS, 0.99)
	m["loadgen.cpu_ms_per_op"] = ms(selfEnd.CPU-selfStart.CPU) / ops
	m["loadgen.slo_miss_ratio"] = sloMissRatio(paced.Samples)
	m["proc.router_cpu_ms_per_op"] = ms(routerCPU) / ops
	m["proc.node_cpu_ms_per_op"] = ms(nodeCPU) / ops
	m["proc.router_rss_mb"] = Median(mem.router)
	m["proc.node_rss_mb"] = Median(mem.nodes)
	// The scrape brackets warm-up and window alike, so its per-op numbers
	// divide by every op the paced phase sent.
	scrapedMetrics(m, scraped, scrapedRt, float64(paced.Sent))

	lt, err := TraceReplay(ctx, w, script, oracle, cfg.Seed, cfg.OutDir)
	if err != nil {
		return nil, err
	}
	for k, v := range lt.Metrics {
		m[k] = v
	}
	run.Budget = lt.SelfUSPerOp
	var explained float64
	for _, v := range lt.SelfUSPerOp {
		explained += v
	}
	m["loadgen.unexplained_ms"] = m["client.op_mean_ms"] - explained/1000
	run.Budget["unexplained"] = m["loadgen.unexplained_ms"] * 1000
	return run, nil
}

// rssSeries is the resident memory of the router and of the nodes, in
// MB, read every rssEvery.
type rssSeries struct{ router, nodes []float64 }

// sampleRSS reads the topology's resident memory until stop closes.
func sampleRSS(t *Topology, stop <-chan struct{}) (out rssSeries) {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if pt, err := t.ReadProcs(); err == nil {
				out.router = append(out.router, pt.Router.RSSMB)
				out.nodes = append(out.nodes, pt.Nodes.RSSMB)
			}
		}
	}
}

// latencies groups the successful samples by class; index numClasses
// holds all of them.
func latencies(samples []Sample) [numClasses + 1][]time.Duration {
	var lat [numClasses + 1][]time.Duration
	for _, s := range samples {
		if s.OK {
			lat[s.Class] = append(lat[s.Class], s.Lat)
			lat[numClasses] = append(lat[numClasses], s.Lat)
		}
	}
	return lat
}

// sloMissRatio is the share of pivot and investigate ops that failed or
// took longer than SLO.
func sloMissRatio(samples []Sample) float64 {
	var n, miss float64
	for _, s := range samples {
		if s.Class != ClassPivot && s.Class != ClassInvestigate {
			continue
		}
		n++
		if !s.OK || s.Lat > SLO {
			miss++
		}
	}
	if n == 0 {
		return 0
	}
	return miss / n
}

func scrapeAll(ctx context.Context, hc *http.Client, t *Topology) (map[*Node]Metrics, error) {
	out := make(map[*Node]Metrics, len(t.Nodes))
	for _, n := range t.Nodes {
		m, err := Scrape(ctx, hc, n.URL)
		if err != nil {
			return nil, err
		}
		out[n] = m
	}
	return out, nil
}

// scrapedMetrics turns the /metrics deltas of the node processes and the
// router into per-layer metrics.
func scrapedMetrics(m map[string]float64, nodes, router Metrics, ops float64) {
	const stage = "pivote_engine_stage_seconds_sum"
	// Evaluations = re-reads (memo hit or miss) + applied op batches
	// (which always evaluate and are not counted as misses).
	m["core.eval_cache_hit_ratio"] = Ratio(nodes.Sum("pivote_eval_cache_total", `result="hit"`),
		nodes.Sum("pivote_eval_cache_total", `result="miss"`)+nodes.Sum("pivote_op_seconds_count"))
	for _, s := range []string{"search", "rank", "expand", "heatmap"} {
		m["core.stage_"+s+"_ms_per_op"] = nodes.Sum(stage, `stage="`+s+`"`) * 1000 / ops
	}
	const route = "pivote_http_request_seconds"
	m["server.route_mean_ms"] = 0
	if n := nodes.Sum(route+"_count", `route="POST /api/v1/ops"`) + nodes.Sum(route+"_count", `route="GET /api/v1/state"`); n > 0 {
		m["server.route_mean_ms"] = (nodes.Sum(route+"_sum", `route="POST /api/v1/ops"`) + nodes.Sum(route+"_sum", `route="GET /api/v1/state"`)) * 1000 / n
	}
	m["wire.hops_wire"] = router.Sum("pivote_router_hops_total", `codec="wire"`)
	m["wire.hops_json"] = router.Sum("pivote_router_hops_total", `codec="json"`)
	m["shard.scatter_mean_ms"] = router.HistMean("pivote_router_scatter_seconds") * 1000
	m["shard.retries"] = router.Sum("pivote_router_retries_total")
	m["shard.failovers"] = router.Sum("pivote_router_failovers_total")
	m["shard.genreread"] = router.Sum("pivote_router_genreread_total")
	m["shard.genwait_coalesced"] = router.Sum("pivote_router_genwait_coalesced_total")
	m["shard.body_pool_hit_ratio"] = Ratio(router.Sum("pivote_router_body_pool_total", `outcome="hit"`), router.Sum("pivote_router_body_pool_total", `outcome="miss"`))
	m["live.swaps"] = nodes.Sum("pivote_live_swaps_total")
	m["live.adoptions"] = nodes.Sum("pivote_live_adoptions_total")
	m["live.ingest_triples"] = nodes.Sum("pivote_live_ingest_triples_total")
	m["live.carry_ratio"] = Ratio(nodes.Sum("pivote_live_cache_carried_total"), nodes.Sum("pivote_live_cache_dropped_total"))
}

// checkIngest verifies the write path's invariants after the run: the
// store holds exactly base + adds − tombstones triples, the generation
// equals the compactions issued, and every replica is in rotation at the
// committed generation.
func checkIngest(ctx context.Context, hc *http.Client, front string, base *LiveReport, w WriterResult) []string {
	cookie := ""
	lr, err := getLive(ctx, hc, front, &cookie)
	if err != nil {
		return []string{fmt.Sprintf("ingest check: %v", err)}
	}
	var problems []string
	if want := base.Triples + w.Adds - w.Dels; lr.Triples != want {
		problems = append(problems, fmt.Sprintf("ingest check: %d triples, want base %d + %d adds − %d tombstones = %d", lr.Triples, base.Triples, w.Adds, w.Dels, want))
	}
	if want := base.Generation + uint64(w.Compactions); lr.Generation != want {
		problems = append(problems, fmt.Sprintf("ingest check: generation %d, want %d after %d compactions", lr.Generation, want, w.Compactions))
	}
	if lr.Router == nil {
		return append(problems, "ingest check: front is not a router")
	}
	for k, sh := range lr.ShardHealth {
		for r, rep := range sh.Replicas {
			if rep.State != "ok" || rep.Generation != lr.Router.Committed {
				problems = append(problems, fmt.Sprintf("ingest check: shard %d replica %d is %q (%s) at generation %d, committed %d", k, r, rep.State, rep.Error, rep.Generation, lr.Router.Committed))
			}
		}
	}
	return problems
}
