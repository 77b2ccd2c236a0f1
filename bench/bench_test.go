package bench

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"pivote/internal/core"
	"pivote/internal/server"
	"pivote/internal/shard"
	"pivote/internal/synth"
)

const testScale = 300

func TestScriptDeterminism(t *testing.T) {
	gen := func(seed int64) *Script {
		t.Helper()
		sc, err := NewOracle(testScale).GenerateScript(seed, 16)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.Digest != b.Digest {
		t.Errorf("same seed, different scripts: %x vs %x", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 7 and 8 produced the same script %x", a.Digest)
	}
	for i, s := range a.Sessions {
		fallbacks := 0
		for _, st := range s.Steps {
			if st.Class == ClassFallback {
				fallbacks++
			}
		}
		want := 0
		if IsHub(i) {
			want = 3
		}
		if s.Hub != IsHub(i) || fallbacks != want {
			t.Errorf("session %d: hub=%v with %d fallback steps, want hub=%v with %d", i, s.Hub, fallbacks, IsHub(i), want)
		}
	}

	o := NewOracle(testScale)
	for _, n := range []int{0, tombstoneLag, tombstoneLag + 3} {
		x, y := o.IngestBatch(7, n), o.IngestBatch(7, n)
		if string(x.Body) != string(y.Body) || x.Adds+x.Dels != IngestBatchTriples {
			t.Errorf("batch %d: not deterministic or %d+%d triples, want %d", n, x.Adds, x.Dels, IngestBatchTriples)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},   // no tail to speak of
		{19, 0.5},  // still fewer than 2×10
		{20, 0.5},  // ten beyond the median exactly
		{100, 0.9}, // ten beyond p90
		{360, 1 - 10.0/360},
		{1000, 0.99},  // ten beyond p99 exactly
		{50000, 0.99}, // never above what was asked
	} {
		if got := TailPercentile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("TailPercentile(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 360)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := Tail(xs, 0.99)
	if beyond := 360 - int(v); beyond != tailMinBeyond {
		t.Errorf("Tail picked %v (q=%v): %d samples beyond it, want %d", v, q, beyond, tailMinBeyond)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "nested", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "overlapping", Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Name: "grandchild", Start: 35, End: 45},
		{ID: 5, Name: "small", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "re-executed", Start: 300, End: 330}, // longer than its logical parent
		{ID: 7, Parent: 1, Name: "re-executed", Start: 400, End: 420}, // outside the parent in time
	}
	want := map[int]time.Duration{
		1: 100 - 50 - 20, // children cover [10,60) and [400,420)
		2: 30,
		3: 30 - 10,
		4: 10,
		5: 0, // clamped
		6: 30,
		7: 20,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

// stubScript is a script whose every step a stub server can answer.
func stubScript() *Script {
	sc := &Script{Sessions: make([]Session, Slots)}
	for i := range sc.Sessions {
		for j := range sc.Sessions[i].Steps {
			op := core.OpDTO{Op: "submit", Keywords: "x"}
			sc.Sessions[i].Steps[j] = Step{Op: "submit", Class: ClassSubmit, Method: http.MethodPost, Path: "/api/v1/ops", Body: opsBody(op), Ops: []core.OpDTO{op}}
		}
	}
	return sc
}

// TestCoordinatedOmission: a server that stalls once for 200 ms must
// raise the latency of the ops that fell due during the stall, because
// ops are timed from their due time, not from when a connection was
// free to send them.
func TestCoordinatedOmission(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var served int
	var stallStart time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		stallNow := served == 20
		if stallNow {
			stallStart = time.Now()
		}
		mu.Unlock()
		if stallNow {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte(`{"applied":1,"state":{"description":"x"}}`))
	}))
	defer srv.Close()

	lg := &LoadGen{Base: srv.URL, Script: stubScript(), Conns: 1}
	res := lg.Paced(context.Background(), NewSlots(), 100, 0, time.Second, nil)
	if len(res.Samples) != 100 {
		t.Fatalf("%d samples, want 100", len(res.Samples))
	}
	during := 0
	for _, s := range res.Samples {
		if !s.OK {
			t.Fatalf("op failed: %v", lg.Failures())
		}
		if s.Due.After(stallStart) && s.Due.Before(stallStart.Add(stall)) {
			during++
			// It could not be answered before the stall ended.
			if min := stallStart.Add(stall).Sub(s.Due); s.Lat < min {
				t.Errorf("op due %v into the stall has latency %v, want ≥ %v", s.Due.Sub(stallStart), s.Lat, min)
			}
		}
	}
	if during < 15 {
		t.Errorf("only %d ops fell due during the stall, want about 20", during)
	}
}

// TestSaturateMoreConnsThanSlots: a generator allowed more connections
// than there are parked sessions (a 16-core machine) must saturate with
// the clients that own a session and leave the rest idle.
func TestSaturateMoreConnsThanSlots(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"applied":1,"state":{"description":"x"}}`))
	}))
	defer srv.Close()

	const more = Slots + 4
	for _, reread := range []bool{true, false} {
		slots := NewSlots()
		for _, sl := range slots {
			sl.parked = reread
		}
		lg := &LoadGen{Base: srv.URL, Script: stubScript(), Conns: more}
		res := lg.Closed(context.Background(), 100*time.Millisecond, saturateSlots(slots, more, reread))
		if len(res.Samples) == 0 {
			t.Errorf("reread=%v: no op completed", reread)
		}
		for _, s := range res.Samples {
			if !s.OK {
				t.Fatalf("reread=%v: op failed: %v", reread, lg.Failures())
			}
		}
	}
	if c := conns(); c > Slots {
		t.Errorf("conns() = %d, want at most the %d sessions in flight", c, Slots)
	}
}

// startInproc is the test substitute for StartTopology: the same
// handlers behind in-process listeners in this process.
func startInproc(_ context.Context, w Workload) (*Topology, error) {
	cfg := synth.Scaled(w.Scale)
	cfg.Seed = GraphSeed
	g := synth.Generate(cfg).Graph
	var h http.Handler
	stop := func() {}
	switch w.Topo {
	case TopoSingle:
		sh := core.NewLiveShared(g, EngineOptions())
		h, stop = server.NewMultiShared(sh, EngineOptions(), 0).Handler(), func() { _ = sh.Close() }
	default:
		cc := shard.ClusterConfig{Shards: 2, Opts: EngineOptions(), Live: true}
		if w.Topo == TopoReplicas2 {
			cc.Shards, cc.Replicas = 1, 2
		}
		cl := shard.NewCluster(g, cc)
		h, stop = cl.Handler(), func() { _ = cl.Close() }
	}
	srv := httptest.NewServer(h)
	n := &Node{Role: "inproc", URL: srv.URL, Router: w.Topo != TopoSingle, Pid: os.Getpid(), Stop: func() { srv.Close(); stop() }}
	return &Topology{Nodes: []*Node{n}, Front: srv.URL}, nil
}

// TestSmoke runs workloads end to end at a tiny scale against in-process
// listeners and checks the contract: every metric BENCHMARK.json names
// is emitted, finite, and carries the unit declared there.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the package %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(Workloads) && w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the package %q", i, w.Name, Workloads[i].Name)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		declared[false][m.Name] = m.Unit + " " + m.Better
	}
	for _, m := range spec.PerLayer {
		declared[true][m.Name] = m.Unit + " " + m.Better
	}
	for _, trace := range []bool{false, true} {
		if len(declared[trace]) != len(Defs(trace)) {
			t.Errorf("trace=%v: BENCHMARK.json declares %d metrics, the package %d", trace, len(declared[trace]), len(Defs(trace)))
		}
		for _, d := range Defs(trace) {
			if got := declared[trace][d.Name]; got != d.Unit+" "+d.Better {
				t.Errorf("metric %s: BENCHMARK.json says %q, the package %q", d.Name, got, d.Unit+" "+d.Better)
			}
		}
	}

	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{"explore_single", false},
		{"reread_cluster", false},
		{"ingest_replicas", false},
		{"ingest_replicas", true},
	} {
		w, _ := WorkloadByName(c.workload)
		w.Scale = testScale
		run, err := RunWorkload(context.Background(), Config{
			Start: startInproc, OutDir: t.TempDir(), Seed: 1, Seconds: 2, Trace: c.trace, Sessions: 16,
		}, w)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !run.Correct || run.Failed != 0 {
			t.Errorf("%s trace=%v: %d of %d ops failed: %v", c.workload, c.trace, run.Failed, run.Attempted, run.Failures)
		}
		line, err := run.Line()
		if err != nil {
			t.Errorf("%s trace=%v: %v", c.workload, c.trace, err)
			continue
		}
		for _, d := range Defs(c.trace) {
			if mv, ok := line.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
				t.Errorf("%s trace=%v: metric %s emitted as %+v, want unit %s", c.workload, c.trace, d.Name, mv, d.Unit)
			}
		}
		if !c.trace {
			for _, d := range EndToEnd {
				if line.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", c.workload, d.Name, line.Metrics[d.Name].Value)
				}
			}
		}
	}
}
