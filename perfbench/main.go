// Command perfbench is hydra's end-to-end benchmark. It serves an
// in-process server.Server, configured as cmd/hydra-serve configures it,
// over real loopback HTTP and drives it from the same process with at most
// GOMAXPROCS connections:
//
//   - an open loop at a fixed offered rate, each request timed from its
//     scheduled arrival (p50_ms, p99_ms);
//   - a closed loop with GOMAXPROCS clients (peak_rps);
//
// and checks every answer against scan.GroundTruth. With --trace 1 it
// instead replays the open-loop schedule with a timing wrapper around the
// server's handler and mirror instances of the router and method layers,
// and reports a per-layer ledger. BENCHMARK.json at the repository root
// lists the workloads and metrics; run it with
//
//	bash perfbench/run.sh --workload exact-walk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// hardDeadline bounds a whole run, set-up included, so a hung request
// cannot hang the benchmark; exitGrace is how long clean-up may take after
// it before the watchdog exits the process (which closes the listener).
const (
	hardDeadline = 160 * time.Second
	exitGrace    = 10 * time.Second
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spanDir, when non-empty, receives the traced run's per-request ledger
	// as JSON lines.
	spanDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, hardDeadline)
	watchdog := time.AfterFunc(hardDeadline+exitGrace, func() {
		fmt.Fprintln(os.Stderr, "perfbench: clean-up overran the hard deadline; exiting")
		os.Exit(3)
	})
	res, err := run(ctx, opts)
	interrupted := ctx.Err()
	watchdog.Stop()
	cancel()
	stop()
	if err == nil && interrupted != nil {
		err = interrupted
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the dataset, queries and schedule")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	fs.StringVar(&o.spanDir, "span-dir", ".bench_build/spans", "directory for the traced run's ledger (empty disables)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds <= 0 || o.seconds > 120 {
		return o, fmt.Errorf("--seconds %v out of range (0, 120]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark run.
func run(ctx context.Context, o options) (result, error) {
	cfg := runConfig{w: workloads[o.workload], seed: o.seed, seconds: o.seconds, traced: o.trace}
	if o.trace && o.spanDir != "" {
		cfg.spanPath = filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	return runWorkload(ctx, cfg)
}

// refusedMS stands in for the latency of a failed or refused request in
// the output, which JSON cannot carry as +Inf.
const refusedMS = 1e9

func ms(d float64) float64 {
	if math.IsInf(d, 1) {
		return refusedMS
	}
	return d * 1e3
}
