package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/server"
)

// cacheBytes is cmd/hydra-serve's -cache-max-bytes default.
const cacheBytes = 64 << 20

// openShare is the share of --seconds the open loop runs; the closed loop
// takes the rest.
const openShare = 0.6

// Each timed phase is cut into equal slices; latency quantiles and
// throughput are taken per slice and the median slice is reported, so a
// burst of interference in one slice (a GC cycle, a noisy neighbour) does
// not move the run's figure. The closed loop is cut into maxWindows slices
// of time; the open loop into as many slices of the schedule as leave
// minWindowSamples requests in each (so p90 has a hundred samples beyond
// it), at most maxWindows.
const (
	maxWindows       = 9
	minWindowSamples = 1000
)

// serverConfig is cmd/hydra-serve's default configuration (result cache,
// router, warm-up fan-out over all cores) with admission control at one
// slot per core, only the workload's preload set, no catalog directory,
// and tracing off.
func serverConfig(w workload, data *series.Dataset, conns int) server.Config {
	return server.Config{
		Data:          data,
		Preload:       w.preload,
		WarmupWorkers: -1,
		CacheMaxBytes: cacheBytes,
		MaxInflight:   conns,
		TraceRing:     -1,
	}
}

// runConfig is one run's workload and settings.
type runConfig struct {
	w        workload
	seed     int64
	seconds  float64
	traced   bool
	spanPath string // traced runs write their ledger here; empty skips it
	// onListen, when set, receives the server's address once it listens.
	onListen func(addr string)
}

// runWorkload sets the server up from the seed, runs the timed phases and
// checks every answer. The listener and client connections are closed, and
// every goroutine it started has ended, on every return path.
func runWorkload(ctx context.Context, cfg runConfig) (res result, err error) {
	w, seed, seconds, traced := cfg.w, cfg.seed, cfg.seconds, cfg.traced
	conns := runtime.GOMAXPROCS(0)
	dataSeed, planSeed := subSeeds(seed)
	data := dataset.Generate(dataset.Config{Kind: w.kind, Count: w.n, Length: w.dim, Seed: dataSeed})

	// Set-up: a cold build of the preload set, several times; setup_s is
	// the median.
	reps := w.setupReps
	if traced {
		reps = 1
	}
	var srv *server.Server
	var setups []float64
	for i := 0; i < reps; i++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		srv = nil
		runtime.GC() // free the previous build before timing the next
		start := time.Now()
		srv, err = server.New(serverConfig(w, data, conns))
		if err != nil {
			return res, fmt.Errorf("server set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())

		for _, st := range srv.WarmupReport() {
			if st.Source == "error" {
				return res, fmt.Errorf("server set-up: hydrating %s: %s", st.Method, st.Error)
			}
		}
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	var mir *mirror
	if traced {
		if mir, err = newMirror(w, data, conns); err != nil {
			return res, err
		}
	}

	openSec := seconds * openShare
	openN := int(math.Ceil(openSec * w.openRate))
	closedN := 0
	if !traced {
		closedN = int(math.Ceil((seconds - openSec) * w.closedCap))
	}
	p, err := makePlan(w, data, rand.New(rand.NewSource(planSeed)), openN, closedN)
	if err != nil {
		return res, err
	}
	tracedFrom, tracedN := len(p.open), 0
	if traced {
		tracedFrom, tracedN = len(p.open)/2, len(p.open)
	}

	e, err := listen(srv, conns, tracedN)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	defer context.AfterFunc(ctx, e.closeConns)()
	if cfg.onListen != nil {
		cfg.onListen(e.addr)
	}

	// Warm-up: connections, lazy state and, for hot workloads, the cache.
	warm := make([]outcome, len(p.warm))
	for i, ri := range p.warm {
		if e.do(ctx, p.reqs[ri].body, -1, &warm[i]); warm[i].failed() {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, fmt.Errorf("warm-up request %d failed: status %d, %v: %s", i, warm[i].status, warm[i].err, warm[i].body)
		}
	}

	ck := &checker{w: w, data: data, pool: p.pool}
	// Hot workloads: every pool answer is checked now, before timing, and
	// becomes the body each later hit must reproduce byte for byte.
	var expect [][]byte
	var hotAnswers []decoded
	if w.hot {
		ck.truth = truthFor(data, p.pool, p.pool.Size(), conns)
		expect = make([][]byte, len(p.reqs))
		hotAnswers = make([]decoded, len(p.reqs))
		for i, ri := range p.warm {
			d, err := ck.check(p.reqs[ri], warm[i].body)
			if err == nil && d.resp.Cached {
				err = fmt.Errorf("warm-up answer came from the cache")
			}
			if err != nil {
				return res, fmt.Errorf("warm-up request %d (%s): %w", i, w.classes[p.reqs[ri].cls].name, err)
			}
			if expect[ri], err = hitBody(warm[i].body); err != nil {
				return res, err
			}
			hotAnswers[ri] = d
		}
	}

	// Each phase starts from a collected heap, so runs do not differ in
	// how much of the previous phase's garbage they inherit.
	runtime.GC()
	open := openLoop(ctx, e, p, p.open, w.openRate, conns, tracedFrom)
	var closed []outcome
	var closedDur time.Duration
	if !traced {
		runtime.GC()
		closed, closedDur = closedLoop(ctx, e, p, p.close, time.Duration((seconds-openSec)*float64(time.Second)), conns)
	}
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	if err := e.close(); err != nil {
		return res, err
	}

	// Checks, outside the timed phases.
	if !w.hot {
		used := 0
		for _, ph := range []struct {
			order []int
			out   []outcome
		}{{p.open, open}, {p.close, closed}} {
			for i := range ph.out {
				if ph.out[i].sent {
					used = max(used, p.reqs[ph.order[i]].vecs[0]+1)
				}
			}
		}
		ck.truth = truthFor(data, p.pool, used, conns)
	}
	var failures []string
	judge := func(ri int, o *outcome) (decoded, bool) {
		var d decoded
		var err error
		switch {
		case o.err != nil:
			err = o.err
		case o.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
		case w.hot:
			if !bytes.Equal(o.body, expect[ri]) {
				err = fmt.Errorf("replay is not byte-identical to the miss that populated it")
			}
			d = hotAnswers[ri]
			d.resp.Cached = true
		default:
			if d, err = ck.check(p.reqs[ri], o.body); err == nil && d.resp.Cached {
				err = fmt.Errorf("served from the cache on a workload of unique requests")
			}
		}
		if err != nil {
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("%s: %v", w.classes[p.reqs[ri].cls].name, err))
			}
			return d, false
		}
		return d, true
	}

	attempted, failed := 0, 0
	var qual quality
	openWins := min(max(len(open)/minWindowSamples, 1), maxWindows)
	lat := make([][]float64, openWins)
	openAnswers := make([]decoded, len(open))
	openOK := make([]bool, len(open))
	for i := range open {
		o := &open[i]
		if !o.sent {
			continue
		}
		attempted++
		win := i * openWins / len(open)
		d, ok := judge(p.open[i], o)
		if !ok {
			failed++
			lat[win] = append(lat[win], math.Inf(1))
			continue
		}
		openAnswers[i], openOK[i] = d, true
		lat[win] = append(lat[win], o.lat.Seconds())
		r := p.reqs[p.open[i]]
		for qi, v := range r.vecs {
			qual.add(data, p.pool.At(v), d.answers[qi], ck.truth[v])
		}
	}
	closedOK := make([]float64, maxWindows)
	for i := range closed {
		attempted++
		if _, ok := judge(p.close[i], &closed[i]); ok {
			closedOK[min(int(closed[i].end*maxWindows/max(closedDur, 1)), maxWindows-1)]++
		} else {
			failed++
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", f)
	}
	if attempted == 0 {
		return res, fmt.Errorf("no request was sent")
	}

	res = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		lg, err := mir.replay(ctx, p, open, openAnswers, openOK, warm, tracedFrom, e.timer)
		if err != nil {
			return res, err
		}
		if cfg.spanPath != "" {
			if err := lg.write(cfg.spanPath); err != nil {
				return res, err
			}
		}
		if err := lg.reconcile(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
			res.Correct = false
		}
		lg.metrics(res.Metrics, mir)
		return res, nil
	}

	if closedDur <= 0 {
		return res, fmt.Errorf("closed loop completed no request")
	}
	if len(closed) == len(p.close) {
		fmt.Fprintf(os.Stderr, "perfbench: closed loop used its whole %d-request pool in %v\n", len(closed), closedDur)
	}
	mapv, recall, mre := qual.mean()
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", median(setups), "s")
	put("heap_mb", heapMB, "MiB")
	var p50s, p90s, rates []float64
	for _, l := range lat {
		p50s, p90s = append(p50s, quantile(l, 0.50)), append(p90s, quantile(l, 0.90))
	}
	for _, n := range closedOK {
		rates = append(rates, n/(closedDur.Seconds()/maxWindows))
	}
	put("p50_ms", ms(median(p50s)), "ms")
	put("p90_ms", ms(median(p90s)), "ms")
	put("peak_rps", median(rates), "1/s")
	put("ok_ratio", float64(attempted-failed)/float64(attempted), "ratio")
	put("map", mapv, "ratio")
	put("avg_recall", recall, "ratio")
	put("dist_ratio", 1+mre, "ratio")
	return res, nil
}

// quantile is the sample at 1-based rank ceil(q·n), loadgen.Histogram's
// rank convention, read exactly from the sorted samples. +Inf samples
// (failed requests) sort last.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(v []float64) float64 { return quantile(v, 0.5) }
