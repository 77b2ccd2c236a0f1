// Command pivote runs the PivotE demo server: the web interface of the
// paper's Figure 3 backed by the JSON API.
//
// Usage:
//
//	pivote [-addr :8080] [-scale 2000] [-seed 42]          # synthetic KG
//	pivote [-addr :8080] -load graph.nt                    # real N-Triples
//	pivote [-addr :8080] -live                             # enable live ingest
//	pivote [-addr :8080] -pprof localhost:6060             # profiling side listener
//	pivote [-addr :8080] -metrics localhost:9090           # metrics side listener
//	pivote -snapshot-dir snaps -write-snapshot             # persist a generation and exit
//	pivote [-addr :8080] -snapshot-dir snaps -restore      # mmap the newest snapshot
//	pivote [-addr :8080] -shards 4                         # in-process sharded cluster
//	pivote [-addr :8080] -shards 4 -replicas 3 -live       # ... with 3 replicas per shard
//	pivote [-addr :8081] -shard-of 0/4                     # one shard node of a cluster
//	pivote [-addr :8081] -replica-of 0.1/4                 # replica 1 of shard 0 (of 4)
//	pivote [-addr :8080] -router http://h1:8081,http://h2:8082   # scatter-gather router
//	pivote [-addr :8080] -router 'http://h1:8081|http://h1b:9081,http://h2:8082|http://h2b:9082'
//	                                                       # ... with '|'-separated replicas
//
// With -live the graph accepts writes at runtime (POST /api/v1/ingest);
// a background compactor folds them into fresh generations without ever
// blocking readers. The server always shuts down gracefully: SIGINT or
// SIGTERM stops accepting connections, drains in-flight operations for
// up to -drain, then stops the compactor.
//
// With -snapshot-dir, every compaction swap under -live also persists
// the new generation as an atomic gen-<id>.pvgen file; -restore boots
// from the newest such snapshot via mmap — no graph build, no index
// build — and logs the startup time either way so the cold-start win is
// visible in ops logs.
//
// Sharded serving comes in three shapes. -shards N runs an in-process
// cluster (N partitioned nodes plus the router) behind one listener —
// results are byte-identical to the single-process server; -replicas M
// replicates every shard M ways (requires -live: write fan-out and
// snapshot adoption are live-path operations). -shard-of k/N runs one
// standalone shard node (hash partitioning by default, -partition
// overrides the spec); its snapshots are per-shard gen-<id>-s<k>.pvgen
// files and -restore finds those. -replica-of k.r/N is the same node
// wearing its replica identity — replica r of shard k — which matters
// for ops logs and the router's health report; give each replica its
// own -snapshot-dir, since replicas of a shard share the per-shard
// snapshot naming. -router fronts already-running shard nodes and
// serves the merged /api/v1 surface; within the comma-separated shard
// list, '|' separates the replicas of one shard, and the router
// health-routes reads across them, fans writes to all of them, and
// coordinates rolling swaps (see the README's Replication section).
//
// Router-shaped processes (-shards, -router) speak a compact binary
// codec on the hops to their shard nodes by default, negotiated per hop
// so pre-codec nodes transparently keep JSON; -codec json is the kill
// switch (see the README's Inter-node wire protocol section).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pivote"
	"pivote/internal/core"
	"pivote/internal/obs"
	"pivote/internal/server"
	"pivote/internal/shard"
)

func main() {
	start := time.Now()
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Int("scale", 2000, "synthetic KG size (films)")
	seed := flag.Int64("seed", 42, "synthetic KG seed")
	load := flag.String("load", "", "load an N-Triples file instead of generating")
	topEntities := flag.Int("entities", 20, "x-axis size")
	topFeatures := flag.Int("features", 15, "y-axis size")
	maxSessions := flag.Int("max-sessions", 64, "concurrent user sessions kept in memory")
	live := flag.Bool("live", false, "enable the live ingest write path (POST /api/v1/ingest)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	pprofAddr := flag.String("pprof", "", "address for a net/http/pprof side listener (e.g. localhost:6060; empty = disabled)")
	metricsAddr := flag.String("metrics", "", "address for a metrics side listener serving /metrics, /api/v1/stats and /api/v1/debug/slow (empty = disabled; the main listener serves them too)")
	slowQuery := flag.Duration("slow-query", obs.DefaultSlowThreshold, "capture requests slower than this in the slow-query log (negative = disabled)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction rate for the pprof mutex profile (0 = off)")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate threshold in ns for the pprof block profile (0 = off)")
	snapshotDir := flag.String("snapshot-dir", "", "directory for generation snapshots (with -live: persist every compaction swap)")
	restore := flag.Bool("restore", false, "boot from the newest snapshot in -snapshot-dir instead of building a graph")
	writeSnapshot := flag.Bool("write-snapshot", false, "write a generation snapshot to -snapshot-dir and exit")
	shards := flag.Int("shards", 0, "run an in-process sharded cluster with N partitions (0 = single process)")
	replicas := flag.Int("replicas", 1, "replicas per shard for -shards (requires -live when > 1)")
	shardOf := flag.String("shard-of", "", "run one shard node: k/N (e.g. 0/4)")
	replicaOf := flag.String("replica-of", "", "run one replica node: k.r/N (e.g. 0.1/4 = replica 1 of shard 0)")
	routerOf := flag.String("router", "", "run a scatter-gather router over comma-separated shard base URLs ('|' separates replicas of one shard)")
	partition := flag.String("partition", "", "partitioner spec for -shard-of (e.g. range/4:1000,2000,3000; default hash/N)")
	codecFlag := flag.String("codec", "auto", "inter-node codec for router→shard hops: auto (negotiate binary wire per hop, fall back to JSON), json (kill switch: force JSON), or wire (force binary; pre-codec shard nodes will error)")
	flag.Parse()

	var codec shard.Codec
	switch *codecFlag {
	case "auto":
		codec = shard.CodecAuto
	case "json":
		codec = shard.CodecJSON
	case "wire":
		codec = shard.CodecWire
	default:
		log.Fatalf("-codec %q: want auto, json or wire", *codecFlag)
	}

	obs.SlowQueries.SetThreshold(*slowQuery)
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if *metricsAddr != "" {
		// Like -pprof, the scrape surface can run on its own listener so
		// monitoring stays reachable (and access-controllable) separately
		// from user traffic. The main listener serves the same routes.
		mux := http.NewServeMux()
		obs.MetricsRoutes(mux, obs.Default, obs.SlowQueries)
		go func() {
			fmt.Fprintf(os.Stderr, "metrics listening on http://%s/metrics\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			}
		}()
	}

	if *pprofAddr != "" {
		// Profiling runs on its own listener and mux so the diagnostic
		// surface never shares a port (or a handler namespace) with user
		// traffic; hot-path regressions are then diagnosable in production
		// with the standard go tool pprof endpoints.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	if (*restore || *writeSnapshot) && *snapshotDir == "" {
		log.Fatal("-restore and -write-snapshot require -snapshot-dir")
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			log.Fatalf("snapshot-dir: %v", err)
		}
	}

	opts := core.Options{TopEntities: *topEntities, TopFeatures: *topFeatures}

	// Router-only process: no graph at all, just scatter-gather over the
	// listed shard nodes. Within the comma-separated shard list, '|'
	// separates the replicas of one shard.
	if *routerOf != "" {
		if *shards > 0 || *shardOf != "" || *replicaOf != "" {
			log.Fatal("-router excludes -shards, -shard-of and -replica-of")
		}
		var urls [][]string
		nReplicas := 0
		for _, set := range strings.Split(*routerOf, ",") {
			var reps []string
			for _, u := range strings.Split(set, "|") {
				reps = append(reps, strings.TrimSpace(u))
			}
			urls = append(urls, reps)
			nReplicas += len(reps)
		}
		ro := shard.NewReplicatedRouter(urls, shard.Options{
			TopEntities: *topEntities,
			MaxSessions: *maxSessions,
			Codec:       codec,
		})
		fmt.Fprintf(os.Stderr, "startup: router over %d shards (%d replicas) ready in %d ms\n",
			len(urls), nReplicas, time.Since(start).Milliseconds())
		runServer(*addr, ro.Handler(), *drain, func() error { return nil },
			fmt.Sprintf("PivotE router (%d shards, %d replicas)", len(urls), nReplicas))
		return
	}

	// In-process cluster: N partitioned nodes (times M replicas) plus
	// the router behind one listener. Persistence flags belong to
	// standalone shard nodes.
	if *shards > 0 {
		if *shardOf != "" || *replicaOf != "" {
			log.Fatal("-shards excludes -shard-of and -replica-of")
		}
		if *restore || *writeSnapshot || *snapshotDir != "" {
			log.Fatal("-shards is in-process only; use -shard-of nodes for per-shard snapshots")
		}
		if *replicas > 1 && !*live {
			log.Fatal("-replicas > 1 requires -live: write fan-out and snapshot adoption are live-path operations")
		}
		g := buildGraph(*load, *scale, *seed)
		cl := shard.NewCluster(g, shard.ClusterConfig{
			Shards:      *shards,
			Replicas:    *replicas,
			Opts:        opts,
			Live:        *live,
			MaxSessions: *maxSessions,
			Router:      shard.Options{Codec: codec, MaxSessions: *maxSessions},
		})
		if *live {
			fmt.Fprintln(os.Stderr, "live ingest enabled: POST /api/v1/ingest")
		}
		banner := fmt.Sprintf("PivotE %d-shard cluster", cl.Partitioner.N())
		if *replicas > 1 {
			banner = fmt.Sprintf("PivotE %d-shard cluster (%d replicas each)", cl.Partitioner.N(), *replicas)
		}
		fmt.Fprintf(os.Stderr, "startup: %d-shard cluster (%s, %d replicas per shard) ready in %d ms\n",
			cl.Partitioner.N(), cl.Partitioner.Spec(), *replicas, time.Since(start).Milliseconds())
		runServer(*addr, cl.Handler(), *drain, cl.Close, banner)
		return
	}

	// Standalone shard node: partition result emission and switch the
	// snapshot format to per-shard files. -replica-of is the same node
	// wearing its replica identity; the partition (and so the results)
	// depend only on the shard index.
	var part shard.Partitioner
	shardIdx, replicaIdx := -1, -1
	if *shardOf != "" || *replicaOf != "" {
		var k, n int
		var err error
		switch {
		case *shardOf != "" && *replicaOf != "":
			log.Fatal("-shard-of excludes -replica-of")
		case *replicaOf != "":
			k, replicaIdx, n, err = parseReplicaOf(*replicaOf)
		default:
			k, n, err = parseShardOf(*shardOf)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *partition != "" {
			part, err = shard.ParseSpec(*partition)
			if err != nil {
				log.Fatalf("-partition: %v", err)
			}
			if part.N() != n {
				log.Fatalf("-partition %s disagrees with the requested %d-shard node", part.Spec(), n)
			}
		} else {
			part = shard.NewHashPartitioner(n)
		}
		shardIdx = k
		opts.Partition = shard.OwnerOf(part, k)
		opts.SnapshotWrite = shard.SnapshotWriter(part, k)
		if replicaIdx >= 0 {
			fmt.Fprintf(os.Stderr, "replica %d of shard %d of %s\n", replicaIdx, k, part.Spec())
		} else {
			fmt.Fprintf(os.Stderr, "shard node %d of %s\n", k, part.Spec())
		}
	}
	var sh *core.Shared
	source := "synthetic"
	if *restore {
		var path string
		var err error
		if shardIdx >= 0 {
			path, err = shard.FindNewestSnapshot(*snapshotDir, shardIdx)
		} else {
			path, err = pivote.FindNewestSnapshot(*snapshotDir)
		}
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		if path == "" {
			log.Fatalf("restore: no snapshot in %s", *snapshotDir)
		}
		fmt.Fprintf(os.Stderr, "restoring %s ...\n", path)
		var gen *pivote.LiveGeneration
		if shardIdx >= 0 {
			var p shard.Partitioner
			var idx int
			gen, p, idx, err = shard.OpenFile(path)
			if err == nil && (idx != shardIdx || p.Spec() != part.Spec()) {
				log.Fatalf("restore: %s was written for shard %d of %s, node is shard %d of %s",
					path, idx, p.Spec(), shardIdx, part.Spec())
			}
		} else {
			gen, err = pivote.OpenGeneration(path)
		}
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		fmt.Fprintf(os.Stderr, "generation %d ready: %d entities, %d triples\n",
			gen.ID, len(gen.Graph.Entities()), gen.Graph.Store().Len())
		if *live {
			sh = core.NewLiveSharedFromGeneration(gen, opts, *snapshotDir)
			fmt.Fprintln(os.Stderr, "live ingest enabled: POST /api/v1/ingest")
		} else {
			sh = core.NewSharedFromGeneration(gen, opts)
		}
		source = "snapshot"
	} else {
		g := buildGraph(*load, *scale, *seed)
		if *load != "" {
			source = "ntriples"
		}
		switch {
		case *live && *snapshotDir != "":
			sh = core.NewLiveSharedWithSnapshots(g, opts, *snapshotDir)
			fmt.Fprintln(os.Stderr, "live ingest enabled: POST /api/v1/ingest")
		case *live:
			sh = core.NewLiveShared(g, opts)
			fmt.Fprintln(os.Stderr, "live ingest enabled: POST /api/v1/ingest")
		default:
			sh = core.NewShared(g, opts)
		}
	}

	if *writeSnapshot {
		gen := sh.Generation()
		var path string
		var err error
		if shardIdx >= 0 {
			path = shard.SnapshotPath(*snapshotDir, gen.ID, shardIdx)
			err = shard.WriteFile(gen, part, shardIdx, path)
		} else {
			path = pivote.SnapshotPath(*snapshotDir, gen.ID)
			err = pivote.SaveGeneration(gen, path)
		}
		if err != nil {
			_ = sh.Close()
			log.Fatalf("write-snapshot: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		if err := sh.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
		return
	}

	m := server.NewMultiShared(sh, opts, *maxSessions)
	fmt.Fprintf(os.Stderr, "startup: %s core ready in %d ms\n",
		source, time.Since(start).Milliseconds())
	banner := "PivotE"
	if replicaIdx >= 0 {
		banner = fmt.Sprintf("PivotE shard %d replica %d", shardIdx, replicaIdx)
	} else if shardIdx >= 0 {
		banner = fmt.Sprintf("PivotE shard %d", shardIdx)
	}
	runServer(*addr, m.Handler(), *drain, sh.Close, banner)
}

// buildGraph loads an N-Triples file or generates the synthetic demo KG.
func buildGraph(load string, scale int, seed int64) *pivote.Graph {
	var g *pivote.Graph
	var err error
	if load != "" {
		fmt.Fprintf(os.Stderr, "loading %s ...\n", load)
		g, err = pivote.LoadGraphFile(load)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating synthetic KG (scale %d, seed %d) ...\n", scale, seed)
		g = pivote.GenerateDemo(scale, seed)
	}
	fmt.Fprintf(os.Stderr, "graph ready: %d entities, %d triples\n",
		len(g.Entities()), g.Store().Len())
	return g
}

// parseShardOf parses a -shard-of value of the form k/N.
func parseShardOf(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	if ok {
		k, err = strconv.Atoi(ks)
		if err == nil {
			n, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard-of: want k/N, got %q", s)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("-shard-of: index %d out of range for %d shards", k, n)
	}
	return k, n, nil
}

// parseReplicaOf parses a -replica-of value of the form k.r/N: replica
// r of shard k in an N-shard cluster.
func parseReplicaOf(s string) (k, r, n int, err error) {
	left, ns, ok := strings.Cut(s, "/")
	if ok {
		var ks, rs string
		ks, rs, ok = strings.Cut(left, ".")
		if ok {
			if k, err = strconv.Atoi(ks); err == nil {
				if r, err = strconv.Atoi(rs); err == nil {
					n, err = strconv.Atoi(ns)
				}
			}
		}
	}
	if !ok || err != nil {
		return 0, 0, 0, fmt.Errorf("-replica-of: want k.r/N, got %q", s)
	}
	if n < 1 || k < 0 || k >= n || r < 0 {
		return 0, 0, 0, fmt.Errorf("-replica-of: shard %d replica %d out of range for %d shards", k, r, n)
	}
	return k, r, n, nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin connections
// forever. Bodies and responses stay unbounded: snapshot adoption
// uploads whole generations, and slow evaluations must not be cut off.
const readHeaderTimeout = 10 * time.Second

// runServer serves h on addr until SIGINT/SIGTERM, drains in-flight
// requests, then runs cleanup (compactor shutdown etc.).
func runServer(addr string, h http.Handler, drain time.Duration, cleanup func() error, banner string) {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "%s listening on http://localhost%s\n", banner, addr)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure; background work (the
		// compactor, if any) is still running, so shut it down first.
		_ = cleanup()
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "shutting down: draining in-flight requests ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
	if err := cleanup(); err != nil {
		fmt.Fprintf(os.Stderr, "close: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "bye")
}
