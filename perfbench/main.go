// Command perfbench is the scoring tier's benchmark. It builds one workload's
// system from the repository's packages (and, for sharded_tier, cmd/serve
// shard processes), drives it with a seeded statement stream for a fixed
// window, checks every answer against the float64 oracle
// (conformance.Score), and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// wrappers installed. With --trace 1 the benchmark wraps the program's
// public seams (engines, journal, shard backends, the shard HTTP client),
// records spans in memory, writes them to <work-dir>/traces, and prints the
// per-layer metrics instead. A wrong answer exits with status 1.
//
// Usage:
//
//	perfbench --workload warm_point|bulk_scan|ingest_mix|sharded_tier
//	          --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//	          [--work-dir DIR] [--rate R]
//
// perfbench/run.sh builds the binaries and runs this command from the
// repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "op-stream seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	serveBin := fs.String("serve-bin", "", "cmd/serve binary (sharded_tier)")
	workDir := fs.String("work-dir", ".bench_build", "directory for temporary data and traces")
	rate := fs.Float64("rate", 0, "open-loop arrival rate override in ops/s (0 = the calibrated rate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		rate:     *rate,
		setups:   3,
		env:      env{serveBin: *serveBin, workDir: *workDir, sizes: defaultSizes},
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	res, err := runBench(ctx, cfg, stderr)
	return report(res, err, stdout, stderr)
}

// report prints the result and returns the exit status: 1 when the run
// failed or any answer was wrong.
func report(res *result, err error, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
