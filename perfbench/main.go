// Command perfbench is the repository's two-clock benchmark. It serves
// seed-generated LLM-SQL traffic through the program's real front door —
// POST /v1/sql on an in-process server over loopback HTTP — checks every
// result relation against a sequential reference, and reports the real
// clock (wall, CPU, allocations, latency) next to the virtual clock
// (simulated JCT, prefix hits, model calls, API cost; names carry sim_
// or describe the simulated engine). Layers are measured only from
// outside the program, at its public seams.
//
// Usage:
//
//	bash perfbench/run.sh --workload analytics-batch --seed 1 --seconds 20 --trace 0
//
// Workloads: analytics-batch, dashboard-open, fleet-batch. With --trace 0
// it prints the end-to-end metrics, with --trace 1 the per-layer metrics of
// a separate traced run (and writes its span file). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	goruntime "runtime"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "analytics-batch, dashboard-open or fleet-batch")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: equal seeds give equal inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long a run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the separate traced run and reports per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "input-size multiplier (smoke tests use a small one)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/traces", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	// The load generator uses at most one client connection per CPU.
	cfg.conns = goruntime.NumCPU()
	if cfg.seconds <= 0 || cfg.scale <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds and --scale must be positive and --trace 0 or 1")
		return 2
	}
	var res *result
	var err error
	switch cfg.workload {
	case "analytics-batch":
		res, err = runJob(ctx, cfg, false)
	case "fleet-batch":
		res, err = runJob(ctx, cfg, true)
	case "dashboard-open":
		res, err = runDashboard(ctx, cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	out := jsonResult{Metrics: map[string]jsonMetric{}}
	if err != nil {
		// A wrong relation or broken accounting fails the run and reports
		// no metrics.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if res != nil {
			out.Attempted, out.Failed = res.attempted, res.failed
		}
		printJSON(stdout, out)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out.Correct, out.Attempted, out.Failed = true, res.attempted, res.failed
	printJSON(stdout, out)
	return 0
}

func printJSON(w io.Writer, v jsonResult) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	fmt.Fprintln(w, string(data))
}
