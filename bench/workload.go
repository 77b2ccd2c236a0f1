// Package bench is pivote-load: the repository's benchmark. It starts
// the real process topologies on loopback TCP, drives them with scripted
// exploration sessions from one load-generator process, checks every
// response against an in-process oracle, and reports client-observed
// end-to-end metrics plus a per-layer budget measured from outside the
// program (traced in-process replay, /metrics deltas, /proc).
//
// See README.md for the one command, the metric tables and how to read
// the budget table.
package bench

// Topo is the process shape a workload runs against.
type Topo int

const (
	// TopoSingle is one `pivote -live` process.
	TopoSingle Topo = iota
	// TopoShards2 is `-router` over two `-shard-of k/2 -live` processes.
	TopoShards2
	// TopoReplicas2 is `-router` over one shard × two `-replica-of 0.r/1
	// -live` processes.
	TopoReplicas2
)

// Workload is one named traffic mix. The names are a contract: later
// issues refer to them. Rate is frozen — calibrated once on the seed
// commit to roughly 30% of the workload's saturated throughput — so
// parent and change always receive identical load.
type Workload struct {
	Name  string
	Topo  Topo
	Scale int     // synthetic KG size (films); every server runs -scale Scale -seed 42
	Rate  float64 // paced session ops/s (open loop)
	// Reread parks the in-flight sessions after step 4 and issues only
	// GET /api/v1/state in the timed phases: the shard-side memo-hit path.
	Reread bool
	// Ingest runs the writer (N-Triples batches + explicit compactions)
	// beside the explore script.
	Ingest bool
}

// Slots is the number of sessions in flight at any time — well under
// the servers' 64-session LRUs, so eviction only ever hits abandoned
// sessions.
const Slots = 8

// Writer pacing for ingest workloads.
const (
	IngestBatchesPerSec = 10
	IngestBatchTriples  = 32
	CompactEvery        = 4 // seconds between explicit POST /api/v1/compact
)

// Workloads are the four named workloads, in the order -all runs them.
var Workloads = []Workload{
	{Name: "explore_single", Topo: TopoSingle, Scale: 10000, Rate: 30},
	{Name: "explore_cluster", Topo: TopoShards2, Scale: 10000, Rate: 30},
	{Name: "reread_cluster", Topo: TopoShards2, Scale: 10000, Rate: 300, Reread: true},
	{Name: "ingest_replicas", Topo: TopoReplicas2, Scale: 3000, Rate: 20, Ingest: true},
}

// WorkloadByName finds a named workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
