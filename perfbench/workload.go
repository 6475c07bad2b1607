package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
)

// k is the neighbour count of every request.
const k = 10

// class is one request shape of a workload.
type class struct {
	name    string
	method  string // wire method name; "auto" lets the server's router pick
	mode    string // wire mode
	nprobe  int    // 0 omits the field (the server then uses 8)
	epsilon float64
	delta   float64 // 0 omits the field (the server then uses 1)
	batch   int     // queries per body; 1 sends "query", more send "queries"
}

// resolved returns the δ and probe budget the server applies to the class,
// which are part of its cache key.
func (c class) resolved() (delta float64, nprobe int) {
	delta, nprobe = c.delta, c.nprobe
	if delta == 0 {
		delta = 1
	}
	if nprobe == 0 {
		nprobe = 8
	}
	return delta, nprobe
}

func (c class) coreMode() core.Mode {
	switch c.mode {
	case "ng":
		return core.ModeNG
	case "epsilon":
		return core.ModeEpsilon
	case "delta-epsilon":
		return core.ModeDeltaEpsilon
	default:
		return core.ModeExact
	}
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	kind    dataset.Kind
	n, dim  int
	preload []string
	classes []class
	// openRate is the open loop's offered rate (requests/s), fixed at about
	// a third of the closed-loop peak measured on a 2-CPU host so a queue
	// only forms on bursts.
	openRate float64
	// closedCap bounds the closed loop's request pool (requests/s times the
	// closed-loop seconds); a host that outruns it ends the loop early and
	// peak_rps is taken over the shorter window.
	closedCap float64
	// hot workloads replay a zipf-skewed choice over a pool of hotPool
	// query vectors (per class) whose answers are cached before timing;
	// other workloads send every vector once per class, so each request is
	// a cache miss.
	hot      bool
	hotPool  int
	zipfS    float64
	warmVecs int // miss workloads: vectors sent before timing
	// setupReps is how many times server.New runs; setup_s is the median.
	setupReps int
}

var exactWalkClasses = []class{
	{name: "dstree-exact", method: "DSTree", mode: "exact", batch: 1},
	{name: "isax-exact", method: "iSAX2+", mode: "exact", batch: 1},
	{name: "va-exact", method: "VA+file", mode: "exact", batch: 1},
	{name: "auto-exact", method: "auto", mode: "exact", batch: 1},
}

var approxClasses = []class{
	{name: "dstree-ng", method: "DSTree", mode: "ng", nprobe: 4, batch: 1},
	{name: "isax-ng", method: "iSAX2+", mode: "ng", nprobe: 8, batch: 1},
	{name: "hnsw-ng", method: "HNSW", mode: "ng", nprobe: 8, batch: 1},
	{name: "dstree-eps", method: "DSTree", mode: "epsilon", epsilon: 1, batch: 1},
	{name: "va-deltaeps", method: "VA+file", mode: "delta-epsilon", epsilon: 0, delta: 0.9, batch: 1},
}

// indexClasses are the classes whose requests reach an index; the traced
// run reports one value per class for every per-class layer metric.
var indexClasses = append(append([]class(nil), exactWalkClasses...), approxClasses...)

// ledgerMethods are the methods any workload preloads, with the metric
// suffix each is reported under.
var ledgerMethods = []struct{ name, key string }{
	{"DSTree", "dstree"},
	{"iSAX2+", "isax"},
	{"VA+file", "vafile"},
	{"HNSW", "hnsw"},
}

var walkPreload = []string{"DSTree", "iSAX2+", "VA+file"}

var workloads = map[string]workload{
	// The index path does nearly all the work: unique random-walk queries
	// over the paper's Rand data miss the cache on every request.
	"exact-walk": {
		name: "exact-walk", kind: dataset.KindWalk, n: 100000, dim: 256,
		preload: walkPreload, classes: exactWalkClasses,
		openRate: 90, closedCap: 600, warmVecs: 4, setupReps: 3,
	},
	// The paper's approximate comparison on clustered vectors (the
	// SIFT/Deep analogue) with graded-noise queries; sub-millisecond
	// requests, and HNSW's build dominates set-up.
	"approx-vectors": {
		name: "approx-vectors", kind: dataset.KindClustered, n: 10000, dim: 128,
		preload: []string{"DSTree", "iSAX2+", "HNSW", "VA+file"}, classes: approxClasses,
		openRate: 1000, closedCap: 6000, warmVecs: 4, setupReps: 3,
	},
	// Every request replays a cached answer: no index calls, so the wire
	// codec, query fingerprinting, cache lookup and transport take all of
	// the time.
	"hot-replay": {
		name: "hot-replay", kind: dataset.KindWalk, n: 100000, dim: 256,
		preload: walkPreload,
		classes: []class{
			{name: "dstree-hot", method: "DSTree", mode: "exact", batch: 1},
			{name: "va-hot", method: "VA+file", mode: "exact", batch: 1},
			{name: "batch8-hot", method: "DSTree", mode: "exact", batch: 8},
		},
		openRate: 1300, closedCap: 10000, hot: true, hotPool: 64, zipfS: 1.2, setupReps: 3,
	},
}

// request is one distinct request body.
type request struct {
	cls  int   // index into workload.classes
	vecs []int // query-pool indices, one per query in the body
	body []byte
}

// wireRequest is the POST /v1/query body (docs/API.md).
type wireRequest struct {
	Method  string      `json:"method"`
	Mode    string      `json:"mode"`
	K       int         `json:"k"`
	Epsilon float64     `json:"epsilon,omitempty"`
	Delta   *float64    `json:"delta,omitempty"`
	NProbe  int         `json:"nprobe,omitempty"`
	Query   []float32   `json:"query,omitempty"`
	Queries [][]float32 `json:"queries,omitempty"`
}

// encode renders the request body; it runs before any timed phase.
func encode(c class, pool *series.Dataset, vecs []int) ([]byte, error) {
	wr := wireRequest{Method: c.method, Mode: c.mode, K: k, Epsilon: c.epsilon, NProbe: c.nprobe}
	if c.delta != 0 {
		d := c.delta
		wr.Delta = &d
	}
	if len(vecs) == 1 {
		wr.Query = pool.At(vecs[0])
	} else {
		for _, v := range vecs {
			wr.Queries = append(wr.Queries, pool.At(v))
		}
	}
	b, err := json.Marshal(wr)
	if err != nil {
		return nil, fmt.Errorf("encoding %s request: %w", c.name, err)
	}
	return b, nil
}

// plan is everything a run sends, derived from the seed.
type plan struct {
	pool  *series.Dataset // query vectors
	reqs  []*request      // distinct bodies
	warm  []int           // reqs sent before timing, in order
	open  []int           // open-loop schedule (indices into reqs)
	close []int           // closed-loop sequence
}

// makePlan generates the query pool, bodies and schedules. Miss workloads
// send each pool vector once per class, in a per-vector shuffled class
// order, so every request has a distinct cache key while ground truth is
// computed once per vector.
func makePlan(w workload, data *series.Dataset, rng *rand.Rand, openN, closedN int) (*plan, error) {
	p := &plan{}
	nc := len(w.classes)
	if w.hot {
		p.pool = dataset.Queries(data, w.kind, w.hotPool, rng.Int63())
		// One body per (class, pool entry); a batch body holds the next
		// batch-1 pool entries too.
		for ci, c := range w.classes {
			for v := 0; v < w.hotPool; v++ {
				vecs := make([]int, c.batch)
				for j := range vecs {
					vecs[j] = (v + j) % w.hotPool
				}
				body, err := encode(c, p.pool, vecs)
				if err != nil {
					return nil, err
				}
				p.warm = append(p.warm, len(p.reqs))
				p.reqs = append(p.reqs, &request{cls: ci, vecs: vecs, body: body})
			}
		}
		zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.hotPool-1))
		pick := func() int { return rng.Intn(nc)*w.hotPool + int(zipf.Uint64()) }
		for i := 0; i < openN; i++ {
			p.open = append(p.open, pick())
		}
		for i := 0; i < closedN; i++ {
			p.close = append(p.close, pick())
		}
		return p, nil
	}
	measured := (openN + closedN + nc - 1) / nc
	nvec := measured + w.warmVecs
	raw := dataset.Queries(data, w.kind, nvec, rng.Int63())
	// Graded-noise generators order queries by difficulty; shuffling mixes
	// easy and hard ones into every phase.
	p.pool = series.NewDataset(data.Length())
	for _, i := range rng.Perm(nvec) {
		p.pool.Append(raw.At(i))
	}
	for v := 0; v < nvec; v++ {
		for _, ci := range rng.Perm(nc) {
			body, err := encode(w.classes[ci], p.pool, []int{v})
			if err != nil {
				return nil, err
			}
			p.reqs = append(p.reqs, &request{cls: ci, vecs: []int{v}, body: body})
		}
	}
	// The warm-up vectors are the pool's last ones.
	measuredReqs := measured * nc
	for i := measuredReqs; i < len(p.reqs); i++ {
		p.warm = append(p.warm, i)
	}
	for i := 0; i < openN; i++ {
		p.open = append(p.open, i)
	}
	for i := openN; i < openN+closedN; i++ {
		p.close = append(p.close, i)
	}
	return p, nil
}

// subSeeds derives independent seeds for the dataset and the plan.
func subSeeds(seed int64) (data, plan int64) {
	r := rand.New(rand.NewSource(seed))
	return r.Int63(), r.Int63()
}
