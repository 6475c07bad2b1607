package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/router"
	"hydra/internal/server"
)

// seqHeader carries a traced request's sequence number to the server-side
// timing wrapper.
const seqHeader = "X-Perfbench-Seq"

// requestTimeout matches cmd/hydra-serve's -request-timeout default.
const requestTimeout = 60 * time.Second

// endpoint is the in-process server on a loopback listener plus the
// benchmark's own client for it: conns keep-alive HTTP/1.1 connections,
// each used by one request at a time, with request heads written by hand
// and responses parsed by http.ReadResponse. It spares the measured
// process net/http.Transport's per-connection goroutines and per-request
// bookkeeping.
type endpoint struct {
	addr      string
	hs        *http.Server
	served    chan error
	timer     *serveTimer // nil unless traced
	free      chan *wireConn
	mu        sync.Mutex // guards wireConn.c against closeConns
	conns     []*wireConn
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

// wireConn is one client connection; c is nil until dialled and after a
// failure.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// serveTimer times the server's Handler().ServeHTTP for traced requests.
type serveTimer struct {
	next http.Handler
	dur  []atomic.Int64 // nanoseconds, indexed by the seq header
}

func (t *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	start := time.Now()
	t.next.ServeHTTP(w, r)
	if err == nil && seq >= 0 && seq < len(t.dur) {
		t.dur[seq].Store(int64(time.Since(start)))
	}
}

// listen serves srv on 127.0.0.1:0 with cmd/hydra-serve's handler stack
// (http.TimeoutHandler under a JSON content type). traced > 0 wraps the
// server's handler in a serveTimer with room for that many sequence numbers.
func listen(srv *server.Server, conns, traced int) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &endpoint{addr: ln.Addr().String(), served: make(chan error, 1), free: make(chan *wireConn, conns)}
	var h http.Handler = srv.Handler()
	if traced > 0 {
		e.timer = &serveTimer{next: h, dur: make([]atomic.Int64, traced)}
		h = e.timer
	}
	inner := http.TimeoutHandler(h, requestTimeout,
		`{"error":{"code":"request_timeout","message":"request exceeded the server's -request-timeout","status":503}}`)
	e.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			inner.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := 0; i < conns; i++ {
		wc := &wireConn{}
		e.conns = append(e.conns, wc)
		e.free <- wc
	}
	return e, nil
}

// closeConns closes every client connection, which also unblocks any
// request in flight; later requests fail without dialling.
func (e *endpoint) closeConns() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for _, wc := range e.conns {
		if wc.c != nil {
			wc.c.Close()
		}
	}
}

// close closes the client's connections, shuts the server down and waits
// for its Serve goroutine. Safe to call more than once.
func (e *endpoint) close() error {
	e.closeOnce.Do(func() {
		e.closeConns()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.hs.Shutdown(ctx); err != nil {
			e.closeErr = fmt.Errorf("shutting down the server: %w", err)
			e.hs.Close()
		}
		<-e.served
	})
	return e.closeErr
}

// outcome is one sent request as the client saw it.
type outcome struct {
	sent   bool
	status int
	err    error
	body   []byte
	lat    time.Duration // open loop: completion minus scheduled arrival
	rtt    time.Duration // send to last response byte
	lag    time.Duration // open loop: dispatch minus scheduled arrival
	wait   time.Duration // open loop: time queued for a connection slot
	end    time.Duration // closed loop: completion, from the loop's start
}

// failed reports a transport error or a non-200 status.
func (o *outcome) failed() bool { return o.err != nil || o.status != http.StatusOK }

// dial (re)connects wc unless the endpoint is closing.
func (e *endpoint) dial(wc *wireConn) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("client closed")
	}
	c, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
	if err != nil {
		return err
	}
	wc.c, wc.br, wc.bw = c, bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
	return nil
}

// drop closes a connection after a failed exchange; the next request on
// it redials.
func (e *endpoint) drop(wc *wireConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if wc.c != nil {
		wc.c.Close()
		wc.c = nil
	}
}

// do sends one request body. seq >= 0 tags it for the server-side timer.
// ctx's cancellation reaches a request in flight through closeConns.
func (e *endpoint) do(ctx context.Context, body []byte, seq int, o *outcome) {
	o.sent = true
	if o.err = ctx.Err(); o.err != nil {
		return
	}
	wc := <-e.free
	defer func() { e.free <- wc }()
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("client panic: %v", r)
		}
		if o.err != nil {
			e.drop(wc)
		}
	}()
	if wc.c == nil {
		if o.err = e.dial(wc); o.err != nil {
			return
		}
	}
	start := time.Now()
	if o.err = wc.c.SetDeadline(start.Add(requestTimeout + 5*time.Second)); o.err != nil {
		return
	}
	bw := wc.bw
	bw.WriteString("POST /v1/query HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: ")
	bw.WriteString(strconv.Itoa(len(body)))
	if seq >= 0 {
		bw.WriteString("\r\n" + seqHeader + ": ")
		bw.WriteString(strconv.Itoa(seq))
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(body)
	if o.err = bw.Flush(); o.err != nil {
		return
	}
	resp, err := http.ReadResponse(wc.br, nil)
	if err != nil {
		o.err = err
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.rtt = time.Since(start)
	o.status = resp.StatusCode
	if resp.Close {
		e.drop(wc)
	}
}

// openLoop sends order[i] at start + i/rate whatever the completions, with
// at most conns requests in flight; the rest queue at a router.Gate sized
// like the server's own admission gate, with an unbounded queue so the
// client never sheds. tracedFrom is the first schedule index tagged for
// the server-side timer (len(order) tags none).
func openLoop(ctx context.Context, e *endpoint, p *plan, order []int, rate float64, conns, tracedFrom int) []outcome {
	out := make([]outcome, len(order))
	gate := router.NewGate(conns, math.MaxInt32, 1)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	for i, ri := range order {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if d := time.Until(start.Add(at)); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		o := &out[i]
		o.lag = time.Since(start) - at
		seq := -1
		if i >= tracedFrom {
			seq = i
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			queued := time.Now()
			gate.Acquire()
			o.wait = time.Since(queued)
			e.do(ctx, body, seq, o)
			gate.Release()
			o.lat = time.Since(start) - at
		}(p.reqs[ri].body)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send the next body of order as
// soon as their previous request completes, until d has passed or order is
// exhausted. It returns the outcomes of the requests sent and the time from
// the start to the last completion.
func closedLoop(ctx context.Context, e *endpoint, p *plan, order []int, d time.Duration, conns int) ([]outcome, time.Duration) {
	out := make([]outcome, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				e.do(ctx, p.reqs[order[i]].body, -1, &out[i])
				out[i].end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	out = out[:min(int(next.Load()), len(order))]
	var last time.Duration
	for i := range out {
		last = max(last, out[i].end)
	}
	return out, last
}
