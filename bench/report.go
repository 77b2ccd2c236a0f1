package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// MetricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test holds the two together.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves says which end-to-end metric, on which workload, the layer
	// metric is expected to move (per-layer metrics only).
	Moves string
}

// EndToEnd are the client-observed metrics, measured with tracing off.
// Every workload exercises every one of them.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "rss_mb", Unit: "MB", Better: "lower"},
}

// PerLayer are the single-layer metrics of the traced run. Source in
// brackets: T = traced in-process replay, M = /metrics delta from the
// networked run, P = /proc, C = the client's own samples.
var PerLayer = []MetricDef{
	// client: the paced phase by op class [C]
	{"client.submit_p50_ms", "ms", "lower", "op_p50_ms on the explore pair"},
	{"client.investigate_p50_ms", "ms", "lower", "op_p50_ms on the explore pair"},
	{"client.pivot_p50_ms", "ms", "lower", "op_p50_ms on the explore pair; the paper's headline gesture"},
	{"client.fallback_p50_ms", "ms", "lower", "op_p95_ms and cpu_ms_per_op on the explore pair"},
	{"client.reread_p50_ms", "ms", "lower", "op_p50_ms on reread_cluster"},
	{"client.ingest_p50_ms", "ms", "lower", "write path of ingest_replicas"},
	{"client.compact_p50_ms", "ms", "lower", "write path of ingest_replicas; stalls leak into its op_p95_ms"},
	{"client.op_mean_ms", "ms", "lower", "the budget table's total"},
	{"client.op_p99_ms", "ms", "lower", "the tail op_p95_ms stops short of; too noisy on 2 cores to gate"},
	// set-up [T]
	{"synth.generate_ms", "ms", "lower", "setup_s, all workloads"},
	{"index.build_ms", "ms", "lower", "setup_s, all workloads"},
	{"semfeat.catalog_build_ms", "ms", "lower", "setup_s, all workloads"},
	{"core.new_shared_ms", "ms", "lower", "setup_s, all workloads"},
	// core [T, M]
	{"core.apply_us", "us", "lower", "op_p50_ms, cpu_ms_per_op on the explore pair"},
	{"core.self_us", "us", "lower", "op_p50_ms on the explore pair"},
	{"core.eval_cache_hit_ratio", "ratio", "higher", "≈1 on reread_cluster, ≈ the re-read share elsewhere"},
	{"core.stage_search_ms_per_op", "ms", "lower", "cpu_ms_per_op on the explore pair"},
	{"core.stage_rank_ms_per_op", "ms", "lower", "cpu_ms_per_op on the explore pair"},
	{"core.stage_expand_ms_per_op", "ms", "lower", "cpu_ms_per_op on the explore pair"},
	{"core.stage_heatmap_ms_per_op", "ms", "lower", "cpu_ms_per_op on the explore pair"},
	// search, semfeat, expand, heatmap [T]
	{"search.search_us", "us", "lower", "client.submit_p50_ms on the explore pair"},
	{"search.calls", "count", "lower", "search work per script"},
	{"semfeat.rank_us", "us", "lower", "client.investigate_p50_ms, client.pivot_p50_ms"},
	{"semfeat.calls", "count", "lower", "rank work per script"},
	{"expand.sf_us", "us", "lower", "client.investigate_p50_ms, client.pivot_p50_ms"},
	{"expand.ppr_us", "us", "lower", "client.fallback_p50_ms, op_p95_ms, cpu_ms_per_op"},
	{"expand.ppr_calls", "count", "lower", "fallback work per script"},
	{"expand.fallback_ratio", "ratio", "lower", "wasted expansions: found nothing, re-ran as PPR"},
	{"heatmap.build_us", "us", "lower", "op_p50_ms on the explore pair"},
	// server [T, M]
	{"server.handler_us", "us", "lower", "op_p50_ms on explore_single"},
	{"server.self_us", "us", "lower", "op_p50_ms on reread_cluster; small share of the explore pair"},
	{"server.resp_bytes", "bytes", "lower", "render and transport cost everywhere"},
	{"server.route_mean_ms", "ms", "lower", "node-side share of op latency, all workloads"},
	// wire [T, M]
	{"wire.encode_state_us", "us", "lower", "op_p50_ms, throughput_ops_s on reread_cluster"},
	{"wire.decode_state_us", "us", "lower", "op_p50_ms, throughput_ops_s on reread_cluster"},
	{"wire.calls", "count", "lower", "0 on explore_single"},
	{"wire.state_bytes", "bytes", "lower", "hop cost on the cluster workloads"},
	{"wire.json_state_bytes", "bytes", "lower", "what the JSON fallback would ship"},
	{"wire.hops_wire", "count", "higher", "hops that negotiated the binary codec"},
	{"wire.hops_json", "count", "lower", "hops that fell back to JSON"},
	// shard [T, M]
	{"shard.merge_us", "us", "lower", "op_p50_ms on the cluster workloads"},
	{"shard.merge_calls", "count", "lower", "0 on explore_single"},
	{"shard.router_self_us", "us", "lower", "explore_cluster − explore_single latency"},
	{"shard.work_amplification", "ratio", "lower", "cpu_ms_per_op on explore_cluster; ≈N today"},
	{"shard.scatter_mean_ms", "ms", "lower", "op_p50_ms on the cluster workloads"},
	{"shard.retries", "count", "lower", "op_p95_ms on ingest_replicas"},
	{"shard.failovers", "count", "lower", "op_p95_ms on ingest_replicas"},
	{"shard.genreread", "count", "lower", "op_p95_ms on ingest_replicas"},
	{"shard.genwait_coalesced", "count", "lower", "op_p95_ms on ingest_replicas"},
	{"shard.body_pool_hit_ratio", "ratio", "higher", "throughput_ops_s on reread_cluster"},
	// live, snap [T, M]
	{"live.ingest_us", "us", "lower", "client.ingest_p50_ms on ingest_replicas"},
	{"live.ingest_calls", "count", "lower", "0 outside ingest_replicas"},
	{"live.compact_ms", "ms", "lower", "client.compact_p50_ms on ingest_replicas"},
	{"live.swaps", "count", "lower", "generation swaps during ingest_replicas"},
	{"live.adoptions", "count", "lower", "snapshot adoptions during ingest_replicas"},
	{"live.ingest_triples", "count", "higher", "write volume applied on ingest_replicas"},
	{"live.carry_ratio", "ratio", "higher", "op_p95_ms after a swap on ingest_replicas"},
	{"snap.write_ms", "ms", "lower", "client.compact_p50_ms on ingest_replicas"},
	{"snap.open_ms", "ms", "lower", "client.compact_p50_ms on ingest_replicas"},
	{"snap.bytes", "bytes", "lower", "snapshot ship cost on ingest_replicas"},
	// processes [P]
	{"proc.router_cpu_ms_per_op", "ms", "lower", "cpu_ms_per_op on the cluster workloads"},
	{"proc.node_cpu_ms_per_op", "ms", "lower", "cpu_ms_per_op everywhere"},
	{"proc.router_rss_mb", "MB", "lower", "rss_mb on the cluster workloads"},
	{"proc.node_rss_mb", "MB", "lower", "rss_mb everywhere"},
	// generator health [C, P]
	{"loadgen.sched_lag_p95_ms", "ms", "lower", "run validity: invalid above 5 ms"},
	{"loadgen.sched_lag_p99_ms", "ms", "lower", "client.op_p99_ms: lateness is booked against the system"},
	{"loadgen.cpu_ms_per_op", "ms", "lower", "run validity on 2 cores"},
	{"loadgen.slo_miss_ratio", "ratio", "lower", "the 100 ms pivot/investigate SLO; a step function of scale"},
	{"loadgen.unexplained_ms", "ms", "lower", "TCP, net/http, scheduler: what no layer span covers"},
}

// Defs returns the metric list a run of the given kind reports.
func Defs(trace bool) []MetricDef {
	if trace {
		return PerLayer
	}
	return EndToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ResultLine is the driver contract's last line of standard output.
type ResultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Line builds the result line: every metric of the run's kind, each
// with its unit. A metric the run did not produce or that is not finite
// is an error — the contract has no way to say "missing".
func (r *Run) Line() (*ResultLine, error) {
	out := &ResultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range Defs(r.Trace) {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// PrintMetrics writes every metric of the run by name and unit.
func (r *Run) PrintMetrics(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d ops attempted, %d failed; %d paced samples, sched lag p95 %.2f p99 %.2f ms; %d conns, GOMAXPROCS %d, nproc %d\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Samples, r.Metrics["loadgen.sched_lag_p95_ms"], r.Metrics["loadgen.sched_lag_p99_ms"], r.Conns, r.GOMAXPROCS, r.NProc)
	if r.Trace {
		fmt.Fprintf(w, "  (client.op_p99_ms reports p%.1f: the highest percentile with ≥ %d samples beyond it)\n", r.TailQ*100, tailMinBeyond)
	}
	for _, d := range Defs(r.Trace) {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// budgetRows is the order of the budget table.
var budgetRows = []string{"server", "core", "search", "semfeat", "expand.sf", "expand.ppr", "heatmap", "wire", "shard.merge", "shard.router", "unexplained"}

// PrintBudget writes the per-layer latency budget: one row per layer,
// one column per workload, mean self time per op in µs. reread_cluster
// is the memo-hit column, explore_cluster the cold-eval column.
func PrintBudget(w io.Writer, runs []*Run) {
	var traced []*Run
	for _, r := range runs {
		if r.Trace {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return
	}
	fmt.Fprintf(w, "\nbudget: mean self time per op, µs (traced in-process replay; unexplained = client mean − the rest)\n%-14s", "layer")
	for _, r := range traced {
		fmt.Fprintf(w, " %16s", r.Workload)
	}
	fmt.Fprintln(w)
	row := func(label string, val func(*Run) float64) {
		fmt.Fprintf(w, "%-14s", label)
		for _, r := range traced {
			fmt.Fprintf(w, " %16.1f", val(r))
		}
		fmt.Fprintln(w)
	}
	for _, layer := range budgetRows {
		row(layer, func(r *Run) float64 { return r.Budget[layer] })
	}
	fmt.Fprintln(w, strings.Repeat("-", 14+17*len(traced)))
	row("client mean", func(r *Run) float64 { return r.Metrics["client.op_mean_ms"] * 1000 })
	row("client p50", func(r *Run) float64 { return r.Metrics["op_p50_ms"] * 1000 })
}

// Report is the content of BENCH_load.json.
type Report struct {
	Revision string `json:"revision"`
	Seconds  int    `json:"seconds"`
	Runs     []*Run `json:"runs"`
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Bounds are the regression bounds of the end-to-end metrics, as
// BENCHMARK.json records them: the share of the parent's median by which
// a metric may worsen.
type Bounds map[string]float64

// SelfCheck compares two sets of runs of the same binary, metric by
// metric, and returns one line per (workload, metric) plus whether every
// end-to-end metric agreed within its bound.
func SelfCheck(a, b []*Run, bounds Bounds) (lines []string, ok bool) {
	ok = true
	byName := map[string]*Run{}
	for _, r := range b {
		if !r.Trace {
			byName[r.Workload] = r
		}
	}
	for _, ra := range a {
		rb := byName[ra.Workload]
		if ra.Trace || rb == nil {
			continue
		}
		for _, d := range EndToEnd {
			name := d.Name
			va, vb := ra.Metrics[name], rb.Metrics[name]
			diff := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			verdict := "ok"
			if diff > bounds[name] {
				verdict, ok = "DISAGREE", false
			}
			lines = append(lines, fmt.Sprintf("%-16s %-18s %12.4f %12.4f  diff %6.3f  bound %5.2f  %s", ra.Workload, name, va, vb, diff, bounds[name], verdict))
		}
	}
	return lines, ok
}
