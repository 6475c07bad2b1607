package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"hydra/internal/core"
	"hydra/internal/eval"
	"hydra/internal/kernel"
	"hydra/internal/scan"
	"hydra/internal/series"
)

// wireResponse is the part of the POST /v1/query response the checks read.
type wireResponse struct {
	Method  string `json:"method"`
	Cached  bool   `json:"cached"`
	Answers []struct {
		Query     int `json:"query"`
		Neighbors []struct {
			ID   int     `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"neighbors"`
	} `json:"answers"`
	IO struct {
		RandomSeeks int64 `json:"random_seeks"`
		BytesRead   int64 `json:"bytes_read"`
	} `json:"io"`
	DistCalcs int64 `json:"dist_calcs"`
}

// distTol is the relative tolerance when comparing distances that went
// through JSON; encoding/json round-trips float64 exactly, so it only
// absorbs summation-order differences between distance kernels.
const distTol = 1e-9

func sameDist(a, b float64) bool {
	return math.Abs(a-b) <= distTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// truthFor computes scan.GroundTruth for pool vectors [0, n) on up to
// workers goroutines. It runs outside every timed phase.
func truthFor(data, pool *series.Dataset, n, workers int) [][]core.Neighbor {
	out := make([][]core.Neighbor, n)
	if n == 0 {
		return out
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(out[lo:hi], scan.GroundTruth(data, pool.Slice(lo, hi), k))
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// checker validates responses against ground truth and the class's
// advertised guarantee.
type checker struct {
	w     workload
	data  *series.Dataset
	pool  *series.Dataset
	truth [][]core.Neighbor
}

// decoded is a response that passed its checks.
type decoded struct {
	resp    wireResponse
	answers [][]core.Neighbor
}

// check decodes one response body for request r and verifies it. Exact
// classes must return scan.GroundTruth's distances at every rank; an ID
// may differ from the truth's only where the two distances tie (the
// reported distance is checked to be the ID's true distance, so a
// differing ID at an equal distance is a legitimate tie break). The ε
// class must stay within (1+ε) of the truth at every rank. Every class
// must return distinct in-range IDs in ascending distance order with
// their true distances.
func (c *checker) check(r *request, body []byte) (decoded, error) {
	var d decoded
	cls := c.w.classes[r.cls]
	if err := json.Unmarshal(body, &d.resp); err != nil {
		return d, fmt.Errorf("decoding response: %w", err)
	}
	if cls.method != "auto" && d.resp.Method != cls.method {
		return d, fmt.Errorf("answered by %q, want %q", d.resp.Method, cls.method)
	}
	if cls.method == "auto" && !slices.Contains(c.w.preload, d.resp.Method) {
		return d, fmt.Errorf("auto routed to %q, which the workload does not preload", d.resp.Method)
	}
	if len(d.resp.Answers) != len(r.vecs) {
		return d, fmt.Errorf("%d answers for %d queries", len(d.resp.Answers), len(r.vecs))
	}
	eps := 0.0
	if cls.mode == "epsilon" {
		eps = cls.epsilon
	}
	for qi, a := range d.resp.Answers {
		if a.Query != qi {
			return d, fmt.Errorf("answer %d labelled query %d", qi, a.Query)
		}
		// An ng search stops after its probe budget whatever it found, so it
		// may return fewer than k answers (the missing ones count against
		// recall); every other mode fills all k.
		if len(a.Neighbors) > k || (cls.mode != "ng" && len(a.Neighbors) != k) {
			return d, fmt.Errorf("query %d: %d neighbours, want %d", qi, len(a.Neighbors), k)
		}
		q := c.pool.At(r.vecs[qi])
		truth := c.truth[r.vecs[qi]]
		nbs := make([]core.Neighbor, len(a.Neighbors))
		seen := make(map[int]bool, k)
		for i, nb := range a.Neighbors {
			if nb.ID < 0 || nb.ID >= c.data.Size() || seen[nb.ID] {
				return d, fmt.Errorf("query %d rank %d: bad or repeated id %d", qi, i, nb.ID)
			}
			seen[nb.ID] = true
			if i > 0 && nb.Dist < a.Neighbors[i-1].Dist {
				return d, fmt.Errorf("query %d rank %d: distances not ascending", qi, i)
			}
			if actual := kernel.Dist(q, c.data.At(nb.ID)); !sameDist(actual, nb.Dist) {
				return d, fmt.Errorf("query %d rank %d: reported distance %v, id %d is at %v", qi, i, nb.Dist, nb.ID, actual)
			}
			switch {
			case cls.mode == "exact" && !sameDist(nb.Dist, truth[i].Dist):
				return d, fmt.Errorf("query %d rank %d: distance %v, ground truth %v", qi, i, nb.Dist, truth[i].Dist)
			case cls.mode == "epsilon" && nb.Dist > (1+eps)*truth[i].Dist*(1+distTol):
				return d, fmt.Errorf("query %d rank %d: distance %v exceeds (1+%v) x %v", qi, i, nb.Dist, eps, truth[i].Dist)
			}
			nbs[i] = core.Neighbor{ID: nb.ID, Dist: nb.Dist}
		}
		d.answers = append(d.answers, nbs)
	}
	return d, nil
}

// hitBody is the body a cache hit must return: the populating miss's body
// with only "cached" flipped.
func hitBody(miss []byte) ([]byte, error) {
	const from, to = `"cached": false`, `"cached": true`
	if n := bytes.Count(miss, []byte(from)); n != 1 {
		return nil, fmt.Errorf("miss body holds %d %s fields, want 1", n, from)
	}
	return bytes.Replace(miss, []byte(from), []byte(to), 1), nil
}

// quality accumulates the paper's accuracy measures over queries.
type quality struct {
	ap, recall, re float64
	n              int
}

func (qa *quality) add(data *series.Dataset, q series.Series, got, truth []core.Neighbor) {
	qa.ap += eval.AveragePrecision(got, truth)
	qa.recall += eval.Recall(got, truth)
	qa.re += eval.RelativeError(q, data, got, truth)
	qa.n++
}

func (qa *quality) mean() (mapv, recall, mre float64) {
	if qa.n == 0 {
		return 0, 0, 0
	}
	n := float64(qa.n)
	return qa.ap / n, qa.recall / n, qa.re / n
}
