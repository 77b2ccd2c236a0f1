package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pivote/internal/apidto"
)

// OpTimeout is the client-side deadline of one request; an op that
// exceeds it is a failed op.
const OpTimeout = 5 * time.Second

// Sample is one attempted op as the client saw it.
type Sample struct {
	Class Class
	Due   time.Time     // when the op fell due (open loop) or was sent (closed loop)
	Lat   time.Duration // completion − Due: coordinated-omission-safe
	OK    bool
}

// LoadGen drives one front URL with a script.
type LoadGen struct {
	Base   string
	Script *Script
	// Hash compares the SHA-256 of every response body with the
	// oracle's; when false (generation-dependent answers) an op passes on
	// status 200 and a decodable body.
	Hash bool
	// Conns is the number of keep-alive connections session traffic is
	// multiplexed over (≤ nproc).
	Conns int

	failMu   sync.Mutex
	failures []string // first few failure descriptions, for the report
}

// newConn returns a client that owns exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout: OpTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// eachConn runs work once per session connection, concurrently, each
// call with its own connection, and returns when all have finished.
func (lg *LoadGen) eachConn(work func(c int, hc *http.Client)) {
	var wg sync.WaitGroup
	for c := 0; c < lg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newConn()
			defer hc.CloseIdleConnections()
			work(c, hc)
		}(c)
	}
	wg.Wait()
}

func (lg *LoadGen) noteFailure(format string, args ...interface{}) {
	lg.failMu.Lock()
	defer lg.failMu.Unlock()
	if len(lg.failures) < 5 {
		lg.failures = append(lg.failures, fmt.Sprintf(format, args...))
	}
}

// Failures returns the first few failure descriptions.
func (lg *LoadGen) Failures() []string {
	lg.failMu.Lock()
	defer lg.failMu.Unlock()
	return append([]string(nil), lg.failures...)
}

// send issues one request and returns the body and the session cookie to
// use next; any transport error, timeout or non-200 status is an error.
func send(ctx context.Context, hc *http.Client, base, method, path string, body []byte, cookie string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, cookie, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, cookie, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, cookie, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, cookie, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
	}
	return got, cookieOf(resp.Header, cookie), nil
}

// slot is one in-flight session. Its lock enforces the session rule:
// the next step is never sent before the previous one answered.
type slot struct {
	mu     sync.Mutex
	cookie string
	sess   int        // script session index
	step   int        // next step to send
	next   func() int // session index to play after this one
	parked bool       // reread workloads: repeat the state re-read forever
}

// exec sends the slot's next step, verifies the answer and advances.
func (lg *LoadGen) exec(ctx context.Context, hc *http.Client, sl *slot, due time.Time) Sample {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	st := &lg.Script.Sessions[sl.sess%len(lg.Script.Sessions)].Steps[sl.step]
	body, cookie, err := send(ctx, hc, lg.Base, st.Method, st.Path, st.Body, sl.cookie)
	lat := time.Since(due)
	if err == nil {
		err = lg.verify(st, body)
	}
	if err != nil {
		lg.noteFailure("session %d step %d (%s): %v", sl.sess, sl.step, st.Op, err)
		if !sl.parked {
			// The session's server-side state is unknown now; abandon it.
			sl.step = StepsPerSession - 1
		}
	}
	sl.cookie = cookie
	if !sl.parked {
		if sl.step++; sl.step == StepsPerSession {
			sl.sess, sl.step, sl.cookie = sl.next(), 0, ""
		}
	}
	return Sample{Class: st.Class, Due: due, Lat: lat, OK: err == nil}
}

func (lg *LoadGen) verify(st *Step, body []byte) error {
	if lg.Hash {
		if sha256.Sum256(body) != st.Want {
			return fmt.Errorf("response differs from the single-process answer (%d bytes)", len(body))
		}
		return nil
	}
	if st.Ops == nil {
		var page apidto.StateV1DTO
		return json.Unmarshal(body, &page)
	}
	var resp apidto.OpsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Applied != len(st.Ops) {
		return fmt.Errorf("applied %d of %d ops", resp.Applied, len(st.Ops))
	}
	return nil
}

// NewSlots makes the in-flight sessions of the paced phase: slot s plays
// script sessions s, s+Slots, s+2·Slots, … so the hub share of the mix
// is the same in every window.
func NewSlots() []*slot {
	slots := make([]*slot, Slots)
	for s := range slots {
		sl := &slot{sess: s}
		sl.next = func() int { return sl.sess + Slots }
		slots[s] = sl
	}
	return slots
}

// untimed plays warm-up ops; any failure there fails the run.
func (lg *LoadGen) untimed(ctx context.Context, hc *http.Client, sl *slot, steps int, failed *atomic.Bool) {
	for i := 0; i < steps; i++ {
		if !lg.exec(ctx, hc, sl, time.Now()).OK {
			failed.Store(true)
		}
	}
}

func (lg *LoadGen) warmErr(failed *atomic.Bool) error {
	if failed.Load() {
		return fmt.Errorf("warm-up ops failed: %v", lg.Failures())
	}
	return nil
}

// PlayAll plays every script session once, untimed, so the servers'
// shared feature caches have seen the whole script before anything is
// measured — whichever session a phase reaches first.
func (lg *LoadGen) PlayAll(ctx context.Context) error {
	var next atomic.Int64
	var failed atomic.Bool
	lg.eachConn(func(_ int, hc *http.Client) {
		for i := int(next.Add(1)) - 1; i < len(lg.Script.Sessions); i = int(next.Add(1)) - 1 {
			lg.untimed(ctx, hc, &slot{sess: i, next: func() int { return i }}, StepsPerSession, &failed)
		}
	})
	return lg.warmErr(&failed)
}

// Preplay advances slot s by steps(s) steps, untimed, over the
// generator's connections. Explore workloads stagger the slots with it
// (slot s starts s steps in, so every round of Slots ops holds one of
// each step); reread workloads park every slot before the re-read.
func (lg *LoadGen) Preplay(ctx context.Context, slots []*slot, steps func(s int) int) error {
	var failed atomic.Bool
	lg.eachConn(func(c int, hc *http.Client) {
		for s := c; s < len(slots); s += lg.Conns {
			lg.untimed(ctx, hc, slots[s], steps(s), &failed)
		}
	})
	return lg.warmErr(&failed)
}

// PacedResult is the measured window of an open-loop phase.
type PacedResult struct {
	Samples []Sample
	// Lag is how late the dispatcher released each measured op: generator
	// health, not system latency (which is timed from the due time).
	Lag []time.Duration
	// BacklogMid and BacklogEnd count ops that were due but not yet
	// picked up by a connection, at the window's midpoint and end.
	BacklogMid, BacklogEnd int
	Start, End             time.Time // measured window
	Sent                   int       // ops sent, warm-up included
}

// sleepUntil blocks the calling OS thread until t. time.Sleep wakes
// through the netpoller, whose timeout has millisecond resolution, and
// overshoots by about half a millisecond on average — a third of a
// memo-hit re-read's latency, all of it booked against the system
// because ops are timed from their due time. nanosleep(2) is accurate to
// tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

type pacedJob struct {
	slot int
	due  time.Time
}

// Paced runs the open loop: ops fall due on a constant-rate schedule for
// warm+dur, op i goes to slot i mod len(slots), and only ops due inside
// the last dur are recorded. onMeasure runs when the window opens.
func (lg *LoadGen) Paced(ctx context.Context, slots []*slot, rate float64, warm, dur time.Duration, onMeasure func()) PacedResult {
	interval := time.Duration(float64(time.Second) / rate)
	warmOps := int(warm / interval)
	n := warmOps + int(dur/interval)
	// Sized to the number of sends: the dispatcher must never block on a
	// busy system, or it would stop counting the wait it imposes.
	jobs := make(chan pacedJob, n)
	var started atomic.Int64
	t0 := time.Now()
	res := PacedResult{
		Samples: make([]Sample, 0, n-warmOps),
		Lag:     make([]time.Duration, 0, n-warmOps),
		Start:   t0.Add(time.Duration(warmOps) * interval),
		End:     t0.Add(time.Duration(n) * interval),
		Sent:    n,
	}
	var mu sync.Mutex // guards res.Samples
	workers := make(chan struct{})
	go func() {
		defer close(workers)
		lg.eachConn(func(_ int, hc *http.Client) {
			for j := range jobs {
				started.Add(1)
				s := lg.exec(ctx, hc, slots[j.slot], j.due)
				if !j.due.Before(res.Start) {
					mu.Lock()
					res.Samples = append(res.Samples, s)
					mu.Unlock()
				}
			}
		})
	}()

	// The dispatcher keeps an OS thread to itself for sleepUntil.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mid := warmOps + (n-warmOps)/2
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := t0.Add(time.Duration(i) * interval)
		sleepUntil(due)
		if i >= warmOps {
			res.Lag = append(res.Lag, time.Since(due))
		}
		backlog := i - int(started.Load())
		if i == mid {
			res.BacklogMid = backlog
		}
		if i == n-1 {
			res.BacklogEnd = backlog
		}
		jobs <- pacedJob{slot: i % len(slots), due: due}
		if i == warmOps && onMeasure != nil {
			onMeasure()
		}
	}
	close(jobs)
	<-workers
	return res
}

// ClosedResult is a closed-loop phase.
type ClosedResult struct {
	Samples []Sample
	Dur     time.Duration
}

// Closed runs the saturation phase: one client per connection, zero
// think time, each looping over slotsOf(client) for dur (a client given
// no slot sends nothing). Only ops that completed inside dur are recorded.
func (lg *LoadGen) Closed(ctx context.Context, dur time.Duration, slotsOf func(client int) []*slot) ClosedResult {
	res := ClosedResult{Dur: dur}
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	lg.eachConn(func(c int, hc *http.Client) {
		mine := slotsOf(c)
		if len(mine) == 0 {
			return
		}
		var local []Sample
		for i := 0; ctx.Err() == nil; i++ {
			s := lg.exec(ctx, hc, mine[i%len(mine)], time.Now())
			if time.Now().After(deadline) {
				break
			}
			local = append(local, s)
		}
		mu.Lock()
		res.Samples = append(res.Samples, local...)
		mu.Unlock()
	})
	return res
}

// WriterResult is everything the ingest writer did.
type WriterResult struct {
	Samples     []Sample // ClassIngest and ClassCompact
	Adds, Dels  int      // triples acknowledged
	Compactions int      // compactions that swapped a generation in
}

// Writer sends IngestBatchesPerSec batches a second on its own
// connection until stop closes, with a POST /api/v1/compact every
// CompactEvery seconds, both open loop: timed from their due time. When
// stop closes it issues a final compaction and returns.
func (lg *LoadGen) Writer(ctx context.Context, o *Oracle, seed int64, stop <-chan struct{}) WriterResult {
	hc := newConn()
	defer hc.CloseIdleConnections()
	var res WriterResult
	const interval = time.Second / IngestBatchesPerSec
	const compactTicks = CompactEvery * IngestBatchesPerSec
	type ackBody struct {
		Added     int  `json:"added"`
		Removed   int  `json:"removed"`
		Compacted bool `json:"compacted"`
	}
	var ack ackBody
	post := func(class Class, path string, body []byte, due time.Time) bool {
		got, _, err := send(ctx, hc, lg.Base, http.MethodPost, path, body, "")
		lat := time.Since(due)
		if err == nil {
			ack = ackBody{}
			err = json.Unmarshal(got, &ack)
		}
		if err != nil {
			lg.noteFailure("%s: %v", class, err)
		}
		res.Samples = append(res.Samples, Sample{Class: class, Due: due, Lat: lat, OK: err == nil})
		return err == nil
	}
	compact := func(due time.Time) {
		if post(ClassCompact, "/api/v1/compact", []byte("{}"), due) && ack.Compacted {
			res.Compactions++
		}
	}
	t0 := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		due := t0.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			// One last swap with no read in flight: a replica the router
			// routed around meanwhile is resynced by it, so the caller
			// can check that the quiesced cluster converged.
			compact(time.Now())
			return res
		case <-time.After(time.Until(due)):
		}
		if i > 0 && i%compactTicks == 0 {
			compact(due)
		}
		b := o.IngestBatch(seed, i)
		if post(ClassIngest, "/api/v1/ingest", b.Body, due) {
			if ack.Added != b.Adds || ack.Removed != b.Dels {
				lg.noteFailure("ingest batch %d: acknowledged +%d −%d, sent +%d −%d", i, ack.Added, ack.Removed, b.Adds, b.Dels)
				res.Samples[len(res.Samples)-1].OK = false
			}
			res.Adds += ack.Added
			res.Dels += ack.Removed
		}
	}
	return res
}
