package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// FaultTransport wraps another RoundTripper (in practice the
// InprocTransport) and injects scripted failures per host — the chaos
// half of the replication story. Two mechanisms compose:
//
//   - Kill/Revive: a killed host fails every request with a transport
//     error until revived, modelling a crashed or partitioned replica.
//     The node behind it is untouched — revival brings it back with the
//     state it had, exactly like a process that was only partitioned.
//   - Push: a FIFO of one-shot faults per host; each request to the
//     host consumes (at most) one and suffers it. Faults model dropped
//     requests, slow replicas, server errors, torn response bodies and
//     answers delivered late.
//
// All methods are safe for concurrent use; the race hammer scripts
// kills from one goroutine while request goroutines consume them.
type FaultTransport struct {
	mu     sync.Mutex
	next   http.RoundTripper
	killed map[string]bool
	queue  map[string][]Fault
}

// Fault is one scripted failure. Zero value is a plain drop.
type Fault struct {
	// Drop fails the request with a transport error before it reaches
	// the node.
	Drop bool
	// Delay stalls the request before forwarding (the router's
	// per-attempt timeout turns a long enough delay into a transport
	// failure; a short one just exercises the retry budget).
	Delay time.Duration
	// Status, when non-zero, short-circuits with an empty response of
	// this status (a 5xx from a sick replica that never did the work).
	Status int
	// TruncateAt, when > 0, serves the real response but tears the body
	// after this many bytes with io.ErrUnexpectedEOF — the torn-TCP
	// case. The router treats an unreadable body as a transport
	// failure, never as an answer.
	TruncateAt int
	// Hold, when non-nil, runs after the node has answered and before
	// the answer is handed back: a response-side stall. A test blocks
	// in it to deliver an answer computed before some event (a swap
	// commit, say) only after that event.
	Hold func()
}

// NewFaultTransport wraps next. A nil next can be set later with Wrap.
func NewFaultTransport(next http.RoundTripper) *FaultTransport {
	return &FaultTransport{next: next, killed: map[string]bool{}, queue: map[string][]Fault{}}
}

// Wrap (re)targets the underlying transport.
func (f *FaultTransport) Wrap(next http.RoundTripper) { f.mu.Lock(); f.next = next; f.mu.Unlock() }

// Kill makes every request to host fail until Revive.
func (f *FaultTransport) Kill(host string) { f.mu.Lock(); f.killed[host] = true; f.mu.Unlock() }

// Revive ends a Kill.
func (f *FaultTransport) Revive(host string) { f.mu.Lock(); delete(f.killed, host); f.mu.Unlock() }

// Killed reports whether host is currently killed.
func (f *FaultTransport) Killed(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed[host]
}

// Push appends one-shot faults to host's script; each subsequent
// request to the host consumes one in FIFO order.
func (f *FaultTransport) Push(host string, faults ...Fault) {
	f.mu.Lock()
	f.queue[host] = append(f.queue[host], faults...)
	f.mu.Unlock()
}

// Pending reports how many scripted faults host has left.
func (f *FaultTransport) Pending(host string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue[host])
}

func (f *FaultTransport) take(host string) (Fault, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed[host] {
		return Fault{}, false, true
	}
	q := f.queue[host]
	if len(q) == 0 {
		return Fault{}, false, false
	}
	f.queue[host] = q[1:]
	return q[0], true, false
}

// RoundTrip applies the host's scripted fault (if any) and forwards.
func (f *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	fault, ok, dead := f.take(host)
	if dead {
		return nil, fmt.Errorf("shard: injected fault: host %q is down", host)
	}
	if ok {
		if fault.Delay > 0 {
			select {
			case <-time.After(fault.Delay):
			case <-req.Context().Done():
				return nil, req.Context().Err()
			}
		}
		if fault.Drop {
			return nil, fmt.Errorf("shard: injected fault: request to %q dropped", host)
		}
		if fault.Status != 0 {
			return &http.Response{
				Status:     fmt.Sprintf("%d %s", fault.Status, http.StatusText(fault.Status)),
				StatusCode: fault.Status,
				Proto:      "HTTP/1.1",
				ProtoMajor: 1,
				ProtoMinor: 1,
				Header:     http.Header{},
				Body:       io.NopCloser(bytes.NewReader(nil)),
				Request:    req,
			}, nil
		}
	}
	f.mu.Lock()
	next := f.next
	f.mu.Unlock()
	resp, err := next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if ok && fault.Hold != nil {
		fault.Hold()
	}
	if ok && fault.TruncateAt > 0 {
		resp.Body = io.NopCloser(&truncatedBody{r: resp.Body, n: fault.TruncateAt})
		resp.ContentLength = -1
	}
	return resp, nil
}

// truncatedBody yields n bytes of the real body, then fails the read —
// the reader sees a torn connection, not a short-but-clean body.
type truncatedBody struct {
	r io.ReadCloser
	n int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.n {
		p = p[:t.n]
	}
	n, err := t.r.Read(p)
	t.n -= n
	if err == io.EOF {
		// The real body ended before the tear point; still tear, so the
		// fault is deterministic regardless of response size.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
