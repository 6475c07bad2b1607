package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hydra/internal/catalog"
	"hydra/internal/core"
	"hydra/internal/eval"
	"hydra/internal/loadgen"
	"hydra/internal/router"
	"hydra/internal/series"
	"hydra/internal/storage"
)

// Ledger tolerance. The mirror re-runs each layer call after the fact on
// its own copies of the indexes, so it only approximates the in-server
// calls: a traced request overruns when its mirrored layer times exceed its
// measured ServeHTTP time by more than ledgerRelTol of it plus
// ledgerAbsTol. The traced run fails when more than ledgerOverrunShare of
// its requests overrun, or when the median server.self_us is below
// -ledgerAbsTol.
const (
	ledgerRelTol       = 0.25
	ledgerAbsTol       = 200 * time.Microsecond
	ledgerOverrunShare = 0.05
	queryReps          = 3
)

// mirror holds instances of the router and method layers built exactly as
// server.New builds its own, so the traced run can time each layer's
// public calls from the benchmark's own code.
type mirror struct {
	w         workload
	data      *series.Dataset
	fp        string // the dataset fingerprint prefixing every cache key
	methods   map[string]core.Method
	hydrate   map[string]float64 // catalog.Warmup seconds per method
	footprint map[string]float64 // Method.Footprint, MiB
	cache     *router.Cache
	route     *router.Router
	model     storage.CostModel
}

func newMirror(w workload, data *series.Dataset, workers int) (*mirror, error) {
	bctx := eval.NewBuildContext(eval.Workload{Data: data}, eval.DefaultSuite())
	m := &mirror{
		w:         w,
		data:      data,
		fp:        bctx.DataFingerprint(),
		methods:   map[string]core.Method{},
		hydrate:   map[string]float64{},
		footprint: map[string]float64{},
		cache:     router.NewCache(cacheBytes),
		route:     router.New(router.Config{Scenario: router.DataScenario(data.Bytes(), router.AvailableRAM())}),
		model:     storage.DefaultCostModel(),
	}
	for _, e := range catalog.Warmup(nil, w.preload, bctx, workers) {
		if e.Err != nil {
			return nil, fmt.Errorf("mirror hydration of %s: %w", e.Name, e.Err)
		}
		m.methods[e.Name] = e.Result.Method
		m.hydrate[e.Name] = e.Result.HydrateSeconds()
		m.footprint[e.Name] = float64(e.Result.Method.Footprint()) / (1 << 20)
	}
	return m, nil
}

// key is the server's result-cache key for a class over a query set.
func (m *mirror) key(c class, qs *series.Dataset) string {
	delta, nprobe := c.resolved()
	return fmt.Sprintf("%s|%s|%s|k=%d|eps=%g|delta=%g|nprobe=%d|q=%s",
		m.fp, c.method, c.coreMode(), k, c.epsilon, delta, nprobe, qs.Fingerprint())
}

// entryBytes is the server's cache charge for a response with these
// answers.
func entryBytes(answers [][]core.Neighbor) int64 {
	n := int64(512)
	for _, a := range answers {
		n += 48 + int64(len(a))*40
	}
	return n
}

func (m *mirror) queries(r *request, pool *series.Dataset) *series.Dataset {
	qs := series.NewDataset(pool.Length())
	for _, v := range r.vecs {
		qs.Append(pool.At(v))
	}
	return qs
}

// refineObserver sums core.SearchObserver refinement time.
type refineObserver struct {
	mu     sync.Mutex
	refine time.Duration
}

func (o *refineObserver) ObserveShard(int, time.Duration) {}

func (o *refineObserver) ObserveRefine(d time.Duration) {
	o.mu.Lock()
	o.refine += d
	o.mu.Unlock()
}

// row is one traced request's ledger entry. Durations are microseconds.
type row struct {
	Seq           int     `json:"seq"`
	Class         string  `json:"class"`
	Method        string  `json:"method"`
	Cached        bool    `json:"cached"`
	Queries       int     `json:"queries"`
	LatencyUS     float64 `json:"latency_us"`
	GateWaitUS    float64 `json:"gate_wait_us"`
	RoundTripUS   float64 `json:"round_trip_us"`
	ServeHTTPUS   float64 `json:"serve_http_us"`
	TransportUS   float64 `json:"transport_us"`
	LookupUS      float64 `json:"cache_lookup_us"`
	RouteUS       float64 `json:"route_us"`
	QueryUS       float64 `json:"query_us"`
	RefineUS      float64 `json:"refine_us"`
	PutUS         float64 `json:"cache_put_us"`
	SelfUS        float64 `json:"server_self_us"`
	RequestBytes  int     `json:"request_bytes"`
	ResponseBytes int     `json:"response_bytes"`
	NodesPopped   int     `json:"nodes_popped"`
	LeavesVisited int     `json:"leaves_visited"`
	DistCalcs     int64   `json:"dist_calcs"`
	RandomSeeks   int64   `json:"random_seeks"`
	BytesRead     int64   `json:"bytes_read"`
}

// ledger is the traced run's per-request record plus run-level counts.
type ledger struct {
	rows       []row
	shed       int     // 429 responses over the whole open loop
	lagP99     float64 // seconds
	overhead   float64 // traced p50 / untraced p50
	evictions  int64
	mismatches []string
	n          int // dataset size
	dim        int
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replay rebuilds the traced half of the open loop layer by layer. The
// mirror cache first receives every earlier miss (warm-up and the untraced
// half), so it holds what the server's cache held; then each traced request
// is timed through the same calls the handler makes: the query
// fingerprint and Cache.Get, and on a miss Router.Pick (auto only),
// eval.ParallelRun on the method the server ran, Router.Observe and
// Cache.Put. The replay's answers must equal the server's.
func (m *mirror) replay(ctx context.Context, p *plan, open []outcome, answers []decoded, ok []bool, warm []outcome, tracedFrom int, timer *serveTimer) (*ledger, error) {
	lg := &ledger{n: m.data.Size(), dim: m.data.Length()}
	remember := func(r *request, body []byte) error {
		var resp wireResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding an untraced response: %w", err)
		}
		if resp.Cached {
			return nil
		}
		ans := make([][]core.Neighbor, len(resp.Answers))
		for i, a := range resp.Answers {
			for _, nb := range a.Neighbors {
				ans[i] = append(ans[i], core.Neighbor{ID: nb.ID, Dist: nb.Dist})
			}
		}
		m.cache.Put(m.key(m.w.classes[r.cls], m.queries(r, p.pool)), ans, entryBytes(ans))
		return nil
	}
	for i, ri := range p.warm {
		if err := remember(p.reqs[ri], warm[i].body); err != nil {
			return nil, err
		}
	}
	var lag loadgen.Histogram
	var untraced, tracedLat loadgen.Histogram
	for i := range open {
		o := &open[i]
		if !o.sent {
			continue
		}
		lag.Record(o.lag.Seconds())
		if o.status == 429 {
			lg.shed++
		}
		if !ok[i] {
			continue
		}
		if i < tracedFrom {
			untraced.Record(o.lat.Seconds())
			if err := remember(p.reqs[p.open[i]], o.body); err != nil {
				return nil, err
			}
		} else {
			tracedLat.Record(o.lat.Seconds())
		}
	}
	lg.lagP99 = lag.Quantile(0.99)
	if u := untraced.Quantile(0.5); u > 0 {
		lg.overhead = tracedLat.Quantile(0.5) / u
	}

	for i := tracedFrom; i < len(open); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !ok[i] {
			continue
		}
		o, d := &open[i], &answers[i]
		r := p.reqs[p.open[i]]
		c := m.w.classes[r.cls]
		serve := time.Duration(timer.dur[i].Load())
		rw := row{
			Seq: i, Class: c.name, Method: d.resp.Method, Cached: d.resp.Cached, Queries: len(r.vecs),
			LatencyUS: us(o.lat), GateWaitUS: us(o.wait), RoundTripUS: us(o.rtt), ServeHTTPUS: us(serve),
			TransportUS: us(o.rtt - serve), RequestBytes: len(r.body), ResponseBytes: len(o.body),
		}
		qs := m.queries(r, p.pool)
		start := time.Now()
		key := m.key(c, qs)
		_, hit := m.cache.Get(key)
		rw.LookupUS = us(time.Since(start))
		if hit != d.resp.Cached {
			lg.mismatches = append(lg.mismatches, fmt.Sprintf("seq %d: mirror cache hit=%v, server cached=%v", i, hit, d.resp.Cached))
		}
		if !hit {
			method := m.methods[d.resp.Method]
			if method == nil {
				return nil, fmt.Errorf("seq %d: server ran %q, which the mirror did not build", i, d.resp.Method)
			}
			delta, nprobe := c.resolved()
			var route time.Duration
			if c.method == "auto" {
				start = time.Now()
				_, err := m.route.Pick(router.Request{Mode: c.coreMode(), K: k, Epsilon: c.epsilon, Delta: delta})
				route = time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("seq %d: mirror route: %w", i, err)
				}
			}
			// The query is the one layer call long enough for interference
			// to matter; its fastest of queryReps runs is kept.
			var out eval.RunOutcome
			var query, refine time.Duration
			for rep := 0; rep < queryReps; rep++ {
				ob := &refineObserver{}
				tmpl := core.Query{Mode: c.coreMode(), Epsilon: c.epsilon, Delta: delta, NProbe: nprobe, Obs: ob}
				start = time.Now()
				o, err := eval.ParallelRun(method, eval.Workload{Data: m.data, Queries: qs, K: k}, tmpl, m.model, eval.RunOptions{Workers: 1})
				took := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("seq %d: mirror query: %w", i, err)
				}
				if rep == 0 || took < query {
					out, query, refine = o, took, ob.refine
				}
			}
			start = time.Now()
			m.route.Observe(d.resp.Method, query.Seconds()/float64(qs.Size()))
			route += time.Since(start)
			ans := make([][]core.Neighbor, len(out.Results))
			for j, res := range out.Results {
				ans[j] = res.Neighbors
				rw.NodesPopped += res.NodesPopped
				rw.LeavesVisited += res.LeavesVisited
				if !sameAnswers(res.Neighbors, d.answers[j]) {
					lg.mismatches = append(lg.mismatches, fmt.Sprintf("seq %d query %d: mirror answers differ from the server's", i, j))
				}
			}
			start = time.Now()
			m.cache.Put(key, ans, entryBytes(ans))
			rw.PutUS = us(time.Since(start))
			rw.RouteUS, rw.QueryUS, rw.RefineUS = us(route), us(query), us(refine)
			rw.DistCalcs, rw.RandomSeeks, rw.BytesRead = out.DistCalcs, out.IO.RandomSeeks, out.IO.BytesRead
		}
		rw.SelfUS = rw.ServeHTTPUS - (rw.LookupUS + rw.RouteUS + rw.QueryUS + rw.PutUS)
		lg.rows = append(lg.rows, rw)
	}
	lg.evictions = m.cache.Stats().Evictions
	return lg, nil
}

func sameAnswers(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameDist(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

// reconcile fails when a mirrored answer differs from the server's or
// when the layer times do not fit inside ServeHTTP within the tolerance.
func (lg *ledger) reconcile() error {
	if len(lg.mismatches) > 0 {
		return fmt.Errorf("%d mirror mismatches, first: %s", len(lg.mismatches), lg.mismatches[0])
	}
	if len(lg.rows) == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	over := 0
	first := ""
	self := make([]float64, 0, len(lg.rows))
	for _, r := range lg.rows {
		self = append(self, r.SelfUS)
		if r.SelfUS < -(ledgerRelTol*r.ServeHTTPUS + us(ledgerAbsTol)) {
			if over == 0 {
				first = fmt.Sprintf("seq %d (%s): layers %.0fus > ServeHTTP %.0fus", r.Seq, r.Class, r.ServeHTTPUS-r.SelfUS, r.ServeHTTPUS)
			}
			over++
		}
	}
	if float64(over) > ledgerOverrunShare*float64(len(lg.rows)) {
		return fmt.Errorf("%d of %d requests overrun ServeHTTP beyond tolerance, first: %s", over, len(lg.rows), first)
	}
	if m := median(self); m < -us(ledgerAbsTol) {
		return fmt.Errorf("median server self time %.0fus is negative beyond tolerance", m)
	}
	return nil
}

// write stores the ledger as JSON lines.
func (lg *ledger) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing the ledger: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing the ledger: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing the ledger: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range lg.rows {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("writing the ledger: %w", err)
		}
	}
	return bw.Flush()
}

// metrics adds every per-layer metric, zero where the workload has no
// such request.
func (lg *ledger) metrics(out map[string]metric, m *mirror) {
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	p50 := func(sel func(r row) (float64, bool)) float64 { return lg.quantile(0.5, sel) }
	all := func(f func(r row) float64) func(r row) (float64, bool) {
		return func(r row) (float64, bool) { return f(r), true }
	}
	misses := func(f func(r row) float64) func(r row) (float64, bool) {
		return func(r row) (float64, bool) { return f(r), !r.Cached }
	}

	put("server.transport_us", p50(all(func(r row) float64 { return r.TransportUS })), "us")
	put("server.self_us", p50(all(func(r row) float64 { return r.SelfUS })), "us")
	var reqBytes, respBytes, hits float64
	auto := map[string]float64{}
	autoN := 0.0
	var seeks, bytesRead, indexQueries float64
	for _, r := range lg.rows {
		reqBytes += float64(r.RequestBytes)
		respBytes += float64(r.ResponseBytes)
		if r.Cached {
			hits++
		} else {
			seeks += float64(r.RandomSeeks)
			bytesRead += float64(r.BytesRead)
			indexQueries += float64(r.Queries)
		}
		if r.Class == "auto-exact" {
			auto[r.Method]++
			autoN++
		}
	}
	rows := float64(len(lg.rows))
	put("server.request_bytes", ratio(reqBytes, rows), "bytes")
	put("server.response_bytes", ratio(respBytes, rows), "bytes")
	put("router.gate_wait_us", lg.quantile(0.99, all(func(r row) float64 { return r.GateWaitUS })), "us")
	put("router.gate_shed", float64(lg.shed), "count")
	put("router.cache_lookup_us", p50(all(func(r row) float64 { return r.LookupUS })), "us")
	put("router.cache_put_us", p50(misses(func(r row) float64 { return r.PutUS })), "us")
	put("router.cache_evictions", float64(lg.evictions), "count")
	put("router.cache_hit_ratio", ratio(hits, rows), "ratio")
	put("router.route_us", p50(misses(func(r row) float64 { return r.RouteUS })), "us")
	for _, lm := range ledgerMethods {
		put("router.routed_share."+lm.key, ratio(auto[lm.name], autoN), "ratio")
		put("catalog.hydrate_s."+lm.key, m.hydrate[lm.name], "s")
		put("core.footprint_mb."+lm.key, m.footprint[lm.name], "MiB")
	}
	for _, c := range indexClasses {
		var n, nodes, leaves, dists float64
		for _, r := range lg.rows {
			if r.Class == c.name && !r.Cached {
				n += float64(r.Queries)
				nodes += float64(r.NodesPopped)
				leaves += float64(r.LeavesVisited)
				dists += float64(r.DistCalcs)
			}
		}
		of := func(f func(r row) float64) func(r row) (float64, bool) {
			return func(r row) (float64, bool) { return f(r), r.Class == c.name && !r.Cached }
		}
		put("eval.query_us."+c.name, p50(of(func(r row) float64 { return r.QueryUS })), "us")
		put("core.search_self_us."+c.name, p50(of(func(r row) float64 { return r.QueryUS - r.RefineUS })), "us")
		put("kernel.refine_us."+c.name, p50(of(func(r row) float64 { return r.RefineUS })), "us")
		put("core.nodes_popped."+c.name, ratio(nodes, n), "count")
		put("core.leaves_visited."+c.name, ratio(leaves, n), "count")
		pruned := 0.0
		if n > 0 {
			pruned = 1 - dists/n/float64(lg.n)
		}
		put("core.pruned_fraction."+c.name, pruned, "ratio")
		put("kernel.dist_calcs."+c.name, ratio(dists, n), "count")
		put("kernel.bytes_scored."+c.name, ratio(dists*float64(lg.dim)*4, n), "bytes")
	}
	put("storage.random_seeks", ratio(seeks, indexQueries), "count")
	put("storage.bytes_read", ratio(bytesRead, indexQueries), "bytes")
	put("bench.send_lag_ms", lg.lagP99*1e3, "ms")
	put("bench.trace_overhead_ratio", lg.overhead, "ratio")
}

// quantile reads the q-quantile of the selected microsecond values from a
// loadgen.Histogram. Negative values (a self time the mirror overestimated
// within tolerance) are recorded as zero, as the histogram clamps them.
func (lg *ledger) quantile(q float64, sel func(r row) (float64, bool)) float64 {
	var h loadgen.Histogram
	for _, r := range lg.rows {
		if v, ok := sel(r); ok {
			h.Record(v / 1e6)
		}
	}
	return h.Quantile(q) * 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
