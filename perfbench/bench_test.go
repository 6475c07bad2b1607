package main

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/kernel"
)

// tiny shrinks a workload so a whole run takes about a second.
func tiny(name string) workload {
	w := workloads[name]
	w.n, w.dim = 2000, 64
	w.openRate, w.closedCap = 100, 400
	w.setupReps = 1
	if w.hot {
		w.hotPool = 8
	}
	return w
}

// settled waits for the goroutine count to fall back to base, which
// happens asynchronously once connections close.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines remain, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func refused(t *testing.T, addr string) {
	t.Helper()
	if addr == "" {
		t.Fatal("the run never listened")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after the run", addr)
	}
}

// TestRunLeavesNothingBehind runs every workload, untraced and traced, and
// checks that the answers pass, the listener is gone and every goroutine
// the run started has ended.
func TestRunLeavesNothingBehind(t *testing.T) {
	for _, name := range []string{"exact-walk", "approx-vectors", "hot-replay"} {
		for _, traced := range []bool{false, true} {
			base := runtime.NumGoroutine()
			var addr string
			res, err := runWorkload(context.Background(), runConfig{
				w: tiny(name), seed: 7, seconds: 1, traced: traced,
				onListen: func(a string) { addr = a },
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if _, ok := res.Metrics["setup_s"]; !ok && !traced {
				t.Errorf("%s: no setup_s in %v", name, res.Metrics)
			}
			if _, ok := res.Metrics["server.self_us"]; !ok && traced {
				t.Errorf("%s: no server.self_us in %v", name, res.Metrics)
			}
			refused(t, addr)
			settled(t, base)
		}
	}
}

// TestInterruptedRunCleansUp cancels the run as soon as it listens, as
// SIGINT/SIGTERM does, and checks it returns the cancellation with nothing
// left behind.
func TestInterruptedRunCleansUp(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var addr string
	_, err := runWorkload(ctx, runConfig{
		w: tiny("exact-walk"), seed: 3, seconds: 1,
		onListen: func(a string) { addr = a; cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	refused(t, addr)
	settled(t, base)
}

// TestCheckerGuarantees pins what each class's answers must satisfy.
func TestCheckerGuarantees(t *testing.T) {
	w := workloads["approx-vectors"]
	data := dataset.Generate(dataset.Config{Kind: w.kind, Count: 4000, Length: 16, Seed: 1})
	pool := dataset.Queries(data, w.kind, 1, 2)
	ck := &checker{w: w, data: data, pool: pool, truth: truthFor(data, pool, 1, 2)}
	truth := ck.truth[0]
	body := func(method string, nbs []core.Neighbor) []byte {
		var sb strings.Builder
		sb.WriteString(`{"method":"` + method + `","cached":false,"answers":[{"query":0,"neighbors":[`)
		for i, nb := range nbs {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{"id":` + strconv.Itoa(nb.ID) + `,"dist":` + strconv.FormatFloat(nb.Dist, 'g', -1, 64) + `}`)
		}
		sb.WriteString("]}]}")
		return []byte(sb.String())
	}
	// The farthest series in place of the true k-th neighbour.
	far := append([]core.Neighbor(nil), truth...)
	for id := 0; id < data.Size(); id++ {
		if d := kernel.Dist(pool.At(0), data.At(id)); d > far[k-1].Dist {
			far[k-1] = core.Neighbor{ID: id, Dist: d}
		}
	}
	if far[k-1].Dist <= 2*truth[k-1].Dist {
		t.Fatalf("no series beyond (1+ε) x the k-th neighbour distance %v", truth[k-1].Dist)
	}
	lied := append([]core.Neighbor(nil), truth...)
	lied[0].Dist *= 0.5
	cls := func(name string) int {
		for i, c := range w.classes {
			if c.name == name {
				return i
			}
		}
		t.Fatalf("no class %s", name)
		return -1
	}
	cases := []struct {
		class, method string
		nbs           []core.Neighbor
		ok            bool
	}{
		{"dstree-eps", "DSTree", truth, true},
		{"dstree-eps", "DSTree", far, false},     // beyond (1+ε) at rank k
		{"dstree-ng", "DSTree", far, true},       // ng promises nothing
		{"dstree-ng", "DSTree", truth[:9], true}, // ng may stop short of k
		{"dstree-eps", "DSTree", truth[:9], false},
		{"dstree-ng", "DSTree", lied, false},  // reported distance is not the id's
		{"dstree-ng", "iSAX2+", truth, false}, // answered by another method
	}
	for i, c := range cases {
		r := &request{cls: cls(c.class), vecs: []int{0}}
		_, err := ck.check(r, body(c.method, c.nbs))
		if (err == nil) != c.ok {
			t.Errorf("case %d (%s): err=%v, want ok=%v", i, c.class, err, c.ok)
		}
	}
}

func TestHitBodyFlipsOnlyCached(t *testing.T) {
	got, err := hitBody([]byte("{\n  \"cached\": false,\n  \"k\": 10\n}"))
	if err != nil || string(got) != "{\n  \"cached\": true,\n  \"k\": 10\n}" {
		t.Fatalf("hitBody = %q, %v", got, err)
	}
	if _, err := hitBody([]byte(`{"k": 10}`)); err == nil {
		t.Fatal("hitBody accepted a body without a cached field")
	}
}

func TestQuantileCountsFailuresLast(t *testing.T) {
	inf := math.Inf(1)
	v := []float64{3, 1, 2, inf}
	if q := quantile(v, 0.5); q != 2 {
		t.Errorf("p50 = %v, want 2", q)
	}
	if q := quantile(v, 0.99); q != inf {
		t.Errorf("p99 = %v, want +Inf", q)
	}
}
