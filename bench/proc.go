package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Node is one server of a topology: normally a pivote process; tests
// substitute an in-process listener.
type Node struct {
	Role   string // "single", "shard0", "replica0.1", "router"
	URL    string
	Router bool
	Pid    int           // the process whose /proc entry accounts for this node
	Stop   func()        // ends the node and waits until it has ended
	done   chan struct{} // closed when the process has exited
	log    string
}

// Topology is a running process set; Front is the URL clients talk to.
type Topology struct {
	Nodes []*Node
	Front string
}

// freeAddr picks a loopback TCP address that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// readyTimeout bounds how long a node may take to answer /api/v1/live.
const readyTimeout = 60 * time.Second

// startNode launches one pivote process in its own process group with
// stderr going to logDir/<workload>-<role>.log. The kernel kills it if the
// generator dies without reaching Stop (a panic, SIGKILL).
func startNode(bin, logDir, workload, role string, args ...string) (*Node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, workload+"-"+role+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	n := &Node{Role: role, URL: "http://" + addr, Pid: cmd.Process.Pid, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is in the log tail; done is what callers watch
		close(n.done)
	}()
	// Kill the whole process group and wait for it.
	n.Stop = func() {
		_ = syscall.Kill(-n.Pid, syscall.SIGKILL) // already gone is fine
		<-n.done
	}
	return n, nil
}

// logTail returns the last lines of the node's log for error reports.
func (n *Node) logTail() string {
	b, err := os.ReadFile(n.log)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// LiveReport is the part of GET /api/v1/live the benchmark reads, from a
// node or (with the router fields) from a router.
type LiveReport struct {
	Generation uint64 `json:"generation"`
	Triples    int    `json:"triples"`
	Router     *struct {
		Shards    int    `json:"shards"`
		Healthy   int    `json:"healthy"`
		Degraded  int    `json:"degradedReplicas"`
		Committed uint64 `json:"committed"`
	} `json:"router"`
	ShardHealth []struct {
		Replicas []struct {
			State      string `json:"state"`
			Error      string `json:"error"`
			Generation uint64 `json:"generation"`
		} `json:"replicas"`
	} `json:"shardHealth"`
}

// getLive fetches /api/v1/live. The cookie keeps readiness polling from
// minting one server-side session per probe.
func getLive(ctx context.Context, hc *http.Client, base string, cookie *string) (*LiveReport, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/live", nil)
	if err != nil {
		return nil, err
	}
	if *cookie != "" {
		req.Header.Set("Cookie", *cookie)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("live: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	*cookie = cookieOf(resp.Header, *cookie)
	var lr LiveReport
	if err := json.Unmarshal(body, &lr); err != nil {
		return nil, fmt.Errorf("live: %v", err)
	}
	return &lr, nil
}

// waitReady polls the node's /api/v1/live until it answers (and, for a
// router, until every replica is in rotation). A node that exits first
// fails the run with its log tail.
func (n *Node) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	cookie := ""
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		lr, err := getLive(ctx, hc, n.URL, &cookie)
		if err == nil && (lr.Router == nil || (lr.Router.Healthy == lr.Router.Shards && lr.Router.Degraded == 0)) {
			return nil
		}
		select {
		case <-n.done:
			return fmt.Errorf("%s exited before becoming ready:\n%s", n.Role, n.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %v (last: %v)\n%s", n.Role, ctx.Err(), err, n.logTail())
		case <-tick.C:
		}
	}
}

// StartTopology starts the workload's processes on free loopback ports
// and returns once every node answers /api/v1/live. On error everything
// already started is killed.
func StartTopology(ctx context.Context, bin, logDir string, w Workload) (_ *Topology, err error) {
	t := &Topology{}
	defer func() {
		if err != nil {
			t.Stop()
		}
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	graph := []string{"-scale", strconv.Itoa(w.Scale), "-seed", strconv.Itoa(GraphSeed), "-live"}
	start := func(role string, args ...string) (*Node, error) {
		n, err := startNode(bin, logDir, w.Name, role, args...)
		if err != nil {
			return nil, err
		}
		t.Nodes = append(t.Nodes, n)
		return n, nil
	}

	var backends []string // per-shard '|'-joined replica URLs
	switch w.Topo {
	case TopoSingle:
		if _, err := start("single", graph...); err != nil {
			return nil, err
		}
	case TopoShards2:
		for k := 0; k < 2; k++ {
			n, err := start(fmt.Sprintf("shard%d", k), append(graph, "-shard-of", fmt.Sprintf("%d/2", k))...)
			if err != nil {
				return nil, err
			}
			backends = append(backends, n.URL)
		}
	case TopoReplicas2:
		var reps []string
		for r := 0; r < 2; r++ {
			n, err := start(fmt.Sprintf("replica0.%d", r), append(graph, "-replica-of", fmt.Sprintf("0.%d/1", r))...)
			if err != nil {
				return nil, err
			}
			reps = append(reps, n.URL)
		}
		backends = []string{strings.Join(reps, "|")}
	}
	for _, n := range t.Nodes {
		if err := n.waitReady(ctx, hc); err != nil {
			return nil, err
		}
	}
	front := t.Nodes[0]
	if backends != nil {
		if front, err = start("router", "-router", strings.Join(backends, ",")); err != nil {
			return nil, err
		}
		front.Router = true
		if err := front.waitReady(ctx, hc); err != nil {
			return nil, err
		}
	}
	t.Front = front.URL
	return t, nil
}

// Stop ends every node and waits until each has ended.
func (t *Topology) Stop() {
	for _, n := range t.Nodes {
		n.Stop()
	}
}

// Exited returns an error naming the first node that has exited.
func (t *Topology) Exited() error {
	for _, n := range t.Nodes {
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during the run:\n%s", n.Role, n.logTail())
		default:
		}
	}
	return nil
}

// ProcSample is one /proc reading of a process.
type ProcSample struct {
	CPU   time.Duration // utime + stime
	RSSMB float64       // VmRSS
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// ReadProc samples CPU time and resident memory of pid.
func ReadProc(pid int) (ProcSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ProcSample{}, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return ProcSample{}, fmt.Errorf("proc: malformed stat for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ProcSample{}, fmt.Errorf("proc: malformed stat times for pid %d", pid)
	}
	s := ProcSample{CPU: time.Duration(utime+stime) * clockTick}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ProcSample{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return ProcSample{}, fmt.Errorf("proc: malformed VmRSS for pid %d", pid)
			}
			s.RSSMB = kb / 1024
		}
	}
	return s, nil
}

// ProcTotals is the /proc reading of a topology, split by role.
type ProcTotals struct {
	Router, Nodes ProcSample
}

// ReadProcs samples every process of the topology.
func (t *Topology) ReadProcs() (ProcTotals, error) {
	var pt ProcTotals
	for _, n := range t.Nodes {
		s, err := ReadProc(n.Pid)
		if err != nil {
			return pt, fmt.Errorf("%s: %w", n.Role, err)
		}
		dst := &pt.Nodes
		if n.Router {
			dst = &pt.Router
		}
		dst.CPU += s.CPU
		dst.RSSMB += s.RSSMB
	}
	return pt, nil
}
