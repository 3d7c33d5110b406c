// Command bench is the repository's performance ledger: four workloads over
// the whole cloudless pipeline, end-to-end metrics measured with nothing
// instrumented, and a traced pass that attributes them to layers. README.md
// in this directory describes every workload and metric.
//
//	go run ./bench                                    all workloads, both passes
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one run (BENCHMARK.json's contract)
//	go run ./bench -repeat N -out sets.json            N sets, with spreads
//	go run ./bench -compare A.json B.json              verdict per workload x metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// defaultSeconds is the timed window of one run, the same on every commit;
// BENCHMARK.json records it as run_seconds.
const defaultSeconds = 16

// metricValue and output are the last line a single run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, runConfig, *run) error{
	"plan_cold":      runPlanCold,
	"edit_loop":      runEditLoop,
	"converge_cycle": runConvergeCycle,
	"daemon_mixed":   runDaemonMixed,
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as the last line (default: all four, both passes)")
	seed := flag.Int64("seed", 1, "seeds the config generator, the edit order and the drift targets")
	seconds := flag.Float64("seconds", defaultSeconds, "timed window of one run")
	trace := flag.Int("trace", 0, "1 = traced pass, reporting the per-layer metrics instead of the end-to-end ones")
	scratch := flag.String("scratch", ".bench_build", "directory for state dirs, journals and the daemon binary")
	out := flag.String("out", "", "write the results of a full run to this file")
	repeat := flag.Int("repeat", 1, "full runs to make, seeds seed..seed+N-1; prints each metric's min/median/max and spread")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = single(ctx, *workload, *seed, *seconds, *trace == 1, *scratch)
	default:
		err = full(ctx, *seed, *seconds, *repeat, *scratch, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result line when a run's outputs were
// wrong: the result is still printed, the exit code is non-zero.
var errIncorrect = fmt.Errorf("correctness check failed")

// single runs one workload once and prints its result.
func single(ctx context.Context, name string, seed int64, seconds float64, traced bool, scratch string) error {
	res, err := runWorkload(ctx, runConfig{
		workload: name, seed: seed, window: time.Duration(seconds * float64(time.Second)),
		traced: traced, sizes: defaultSizes, dir: scratch,
	})
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, res, specs(traced), traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runWorkload executes one run inside a scratch directory of its own.
func runWorkload(ctx context.Context, cfg runConfig) (output, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return output{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return output{}, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	r := newRun()
	if err := fn(ctx, cfg, r); err != nil {
		return output{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, v := range r.violations {
		fmt.Fprintf(os.Stderr, "bench: %s: violation: %s\n", cfg.workload, v)
	}
	res := output{
		Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range specs(cfg.traced) {
		res.Metrics[m.Name] = metricValue{Value: r.metrics[m.Name], Unit: m.Unit}
	}
	return res, nil
}
