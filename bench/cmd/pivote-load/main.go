// Command pivote-load is the repository's benchmark: it builds
// cmd/pivote, starts each workload's real process topology on loopback
// TCP, drives it from this one load-generator process, checks every
// response, and reports client-observed end-to-end metrics (tracing
// off) or the per-layer budget (a separate traced run).
//
// One run, as the benchmark driver invokes it (through bench/run.sh,
// which also builds this command):
//
//	pivote-load --workload explore_cluster --seed 7 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything else a person would
// read goes to standard error. An invalid run (see bench.Run.Invalid)
// still prints its line and then exits non-zero.
//
// The full set, for people:
//
//	pivote-load -all [-seed N]     every workload, end-to-end then traced, plus the budget table
//	pivote-load -selfcheck         the end-to-end set twice; non-zero exit if they disagree beyond the bounds
//
// Both write bench/out/BENCH_load.json. -scale, -rate and -sessions
// reach what the named workloads deliberately do not cover.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pivote/bench"
)

// workloadTimeout is the hard limit of one workload run; the driver
// allows 180 s.
const workloadTimeout = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "run one named workload and print the result line")
	seed := flag.Int64("seed", 1, "workload seed: which entities the scripted sessions touch")
	seconds := flag.Int("seconds", 24, "measured seconds per run (60% paced open loop, 40% saturate closed loop; warm-up comes on top)")
	trace := flag.Int("trace", 0, "1 = per-layer run (traced replay, /metrics deltas, /proc split), 0 = end-to-end run")
	all := flag.Bool("all", false, "run every workload end-to-end and traced, print the budget table, write BENCH_load.json")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end set twice and compare against the bounds in BENCHMARK.json")
	root := flag.String("root", ".", "checkout root (holds go.mod, cmd/pivote, BENCHMARK.json)")
	scale := flag.Int("scale", 0, "override the workload's graph scale")
	rate := flag.Float64("rate", 0, "override the workload's paced rate, ops/s")
	sessions := flag.Int("sessions", 32, "distinct script sessions the phases cycle through")
	flag.Parse()

	// The generator may not use more cores than the machine has, however
	// GOMAXPROCS was inherited.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, all: *all, selfcheck: *selfcheck,
		root: *root, scale: *scale, rate: *rate, sessions: *sessions,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pivote-load:", err)
		os.Exit(1)
	}
}

type options struct {
	workload       string
	seed           int64
	seconds        int
	trace          bool
	all, selfcheck bool
	root           string
	scale          int
	rate           float64
	sessions       int
}

func run(ctx context.Context, o options) error {
	if o.seconds < 1 || o.sessions < bench.Slots {
		return fmt.Errorf("need -seconds ≥ 1 and -sessions ≥ %d", bench.Slots)
	}
	bin, err := filepath.Abs(filepath.Join(o.root, ".bench_build", "pivote"))
	if err != nil {
		return err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pivote")
	build.Dir = o.root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build cmd/pivote: %w", err)
	}
	outDir := filepath.Join(o.root, "bench", "out")
	cfg := bench.Config{
		Start: func(ctx context.Context, w bench.Workload) (*bench.Topology, error) {
			return bench.StartTopology(ctx, bin, outDir, w)
		},
		OutDir: outDir, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Sessions: o.sessions,
	}
	one := func(w bench.Workload, cfg bench.Config) (*bench.Run, error) {
		if o.scale > 0 {
			w.Scale = o.scale
		}
		if o.rate > 0 {
			w.Rate = o.rate
		}
		wctx, cancel := context.WithTimeout(ctx, workloadTimeout)
		defer cancel()
		r, err := bench.RunWorkload(wctx, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		r.PrintMetrics(os.Stderr)
		return r, nil
	}

	switch {
	case o.all || o.selfcheck:
		return full(o, cfg, one)
	case o.workload != "":
		w, ok := bench.WorkloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		r, err := one(w, cfg)
		if err != nil {
			return err
		}
		line, err := r.Line()
		if err != nil {
			return err
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			return err
		}
		return invalid(r)
	default:
		return fmt.Errorf("need -workload NAME, -all or -selfcheck")
	}
}

// full runs the whole set: -all is every workload end-to-end and traced;
// -selfcheck is the end-to-end set twice. Metrics of invalid runs are
// still printed and written; the exit code says a run was invalid.
func full(o options, cfg bench.Config, one func(bench.Workload, bench.Config) (*bench.Run, error)) error {
	set := func(trace bool) ([]*bench.Run, error) {
		var runs []*bench.Run
		cfg.Trace = trace
		for _, w := range bench.Workloads {
			r, err := one(w, cfg)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		return runs, nil
	}
	first, err := set(false)
	if err != nil {
		return err
	}
	second, err := set(o.all) // traced for -all, a repeat for -selfcheck
	if err != nil {
		return err
	}
	runs := append(first, second...)

	agreed := true
	if o.selfcheck {
		bounds, err := readBounds(filepath.Join(o.root, "BENCHMARK.json"))
		if err != nil {
			return err
		}
		var lines []string
		lines, agreed = bench.SelfCheck(first, second, bounds)
		fmt.Println("selfcheck: same binary, two sets; relative difference against the bound")
		for _, l := range lines {
			fmt.Println(l)
		}
	} else {
		for _, r := range runs {
			r.PrintMetrics(os.Stdout)
		}
		bench.PrintBudget(os.Stdout, runs)
	}

	out, err := os.Create(filepath.Join(cfg.OutDir, "BENCH_load.json"))
	if err != nil {
		return err
	}
	werr := bench.WriteReport(out, &bench.Report{Revision: revision(o.root), Seconds: o.seconds, Runs: runs})
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	for _, r := range runs {
		if err := invalid(r); err != nil {
			return err
		}
	}
	if !agreed {
		return fmt.Errorf("selfcheck: two sets of the same binary disagree beyond the bounds")
	}
	return nil
}

// invalid is the error of a run whose numbers must not be compared:
// failed ops, a starved generator or a growing backlog. Its metrics have
// been printed by then; the exit code keeps them out of comparisons.
func invalid(r *bench.Run) error {
	if len(r.Invalid) == 0 {
		return nil
	}
	return fmt.Errorf("%s (trace=%v) is invalid: %v", r.Workload, r.Trace, r.Invalid)
}

// revision is the checkout's git revision, or "unknown" outside a
// repository (the driver's checkouts are plain directories).
func revision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil || len(out) < 40 {
		return "unknown"
	}
	return string(out[:40])
}

func readBounds(path string) (bench.Bounds, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b := bench.Bounds{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}
