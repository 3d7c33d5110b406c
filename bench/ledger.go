package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env records where a result file was measured; numbers from different
// machine shapes do not compare.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	// RefShare and TracedShare split a trace run's window (see dag.go).
	RefShare    float64 `json:"trace_run_reference_share"`
	TracedShare float64 `json:"trace_run_traced_share"`
	Filesystem  string  `json:"data_dir_filesystem"`
	Clients     int     `json:"daemon_mixed_clients"`
	Workers     int     `json:"daemon_workers"`
	Loop        string  `json:"loop"`
}

func readEnv(ctx context.Context, seed int64, seconds float64, scratch string) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
		RefShare: refShare, TracedShare: tracedShare, Filesystem: filesystemOf(scratch),
		Clients: defaultSizes.clients, Workers: daemonWorkers, Loop: "closed",
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	// A checkout without git metadata simply has no commit to record.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// filesystemOf names the filesystem type and device holding path, from the
// longest mount point that prefixes it.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]+" on "+f[0]
		}
	}
	return fs
}

// workloadResult is one workload's two runs: the untraced one carries the
// end-to-end metrics, the trace run the per-layer ones.
type workloadResult struct {
	EndToEnd output `json:"end_to_end"`
	PerLayer output `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads: one set per -repeat.
type resultFile struct {
	Env  env                         `json:"env"`
	Sets []map[string]workloadResult `json:"sets"`
}

// full runs every workload, untraced then traced, `repeat` times over. Each
// run is a child process of its own, so no workload inherits another's heap
// and peak_rss_mb is the workload's own.
func full(ctx context.Context, seed int64, seconds float64, repeat int, scratch, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: readEnv(ctx, seed, seconds, scratch)}
	correct := true
	for i := 0; i < repeat; i++ {
		set := map[string]workloadResult{}
		for _, name := range workloadNames {
			var res workloadResult
			for _, traced := range []bool{false, true} {
				o, err := child(ctx, self, name, seed+int64(i), seconds, traced, scratch)
				if err != nil {
					return err
				}
				correct = correct && o.Correct
				if traced {
					res.PerLayer = o
				} else {
					res.EndToEnd = o
				}
			}
			set[name] = res
			if repeat == 1 {
				fmt.Printf("%s  (seed %d, %gs window)\n", name, seed, seconds)
				printMetrics(os.Stdout, res.EndToEnd, endToEnd, false)
				printMetrics(os.Stdout, res.PerLayer, perLayer, true)
			} else {
				fmt.Printf("set %d/%d %s done\n", i+1, repeat, name)
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if repeat > 1 {
		printSpreads(os.Stdout, file)
	}
	if out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// child runs one workload once in a process of its own and parses the
// result line. A run that printed a result but failed its checks is
// returned, not an error: the caller reports it and exits non-zero.
func child(ctx context.Context, self, name string, seed int64, seconds float64, traced bool, scratch string) (output, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-scratch", scratch)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		if runErr != nil {
			return o, fmt.Errorf("%s (trace %s): %w", name, trace, runErr)
		}
		return o, fmt.Errorf("%s (trace %s): no result line: %w", name, trace, err)
	}
	return o, nil
}

// printMetrics lists metrics by name with value and unit; skipZero leaves
// out per-layer metrics the workload does not exercise.
func printMetrics(w io.Writer, res output, specs []metricSpec, skipZero bool) {
	for _, m := range specs {
		v := res.Metrics[m.Name].Value
		if skipZero && v == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	fmt.Fprintf(w, "  %-34s %9d of %d failed\n", "operations", res.Failed, res.Attempted)
}

// values gathers one end-to-end or per-layer metric across a file's sets.
func (f resultFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, set := range f.Sets {
		res := set[workload].EndToEnd
		if traced {
			res = set[workload].PerLayer
		}
		if m, ok := res.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedFrac is failed over attempted operations across a file's sets.
func (f resultFile) failedFrac(workload string) float64 {
	var failed, attempted int
	for _, set := range f.Sets {
		for _, o := range []output{set[workload].EndToEnd, set[workload].PerLayer} {
			failed += o.Failed
			attempted += o.Attempted
		}
	}
	if attempted == 0 {
		return 1 // nothing ran: nothing succeeded
	}
	return float64(failed) / float64(attempted)
}

// printSpreads shows how far the sets of one file disagree, so the bounds in
// BENCHMARK.json are measured, not guessed.
func printSpreads(w io.Writer, f resultFile) {
	for _, name := range workloadNames {
		fmt.Fprintf(w, "%s  (%d sets)\n", name, len(f.Sets))
		fmt.Fprintf(w, "  %-34s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, m := range endToEnd {
			v := sorted(f.values(name, m.Name, false))
			if len(v) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n",
				m.Name, v[0], median(v), v[len(v)-1], 100*spread(v), 100*m.Bound, m.Unit)
		}
		for _, m := range perLayer {
			v := sorted(f.values(name, m.Name, true))
			if len(v) == 0 || v[len(v)-1] == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-34s %12.4f %12.4f %12.4f %7.1f%%         %s\n",
				m.Name, v[0], median(v), v[len(v)-1], 100*spread(v), m.Unit)
		}
		fmt.Fprintf(w, "  %-34s %12.6f\n", "failed_frac", f.failedFrac(name))
	}
}

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minSetsForSpread is how many runs a side needs before its interquartile
// spread means anything: with fewer, the quartiles are just its extremes.
const minSetsForSpread = 4

// judge compares one metric's runs in B against A: worse by more than the
// bound is a regression; when either side's own spread exceeds the bound the
// runs cannot tell, unless every run of B beats every run of A.
func judge(m metricSpec, a, b []float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	ratio = mb / ma
	worse := ratio - 1
	better := func(x, y float64) bool { return x < y }
	if m.Better == higher {
		worse = 1 - ratio
		better = func(x, y float64) bool { return x > y }
	}
	noisy := func(xs []float64) bool { return len(xs) >= minSetsForSpread && spread(xs) > m.Bound }
	if noisy(a) || noisy(b) {
		sa, sb := sorted(a), sorted(b)
		worstB, bestA := sb[len(sb)-1], sa[0]
		if m.Better == higher {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if better(worstB, bestA) {
			return ratio, verdictOK
		}
		return ratio, verdictUnresolved
	}
	if worse > m.Bound {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s: no sets", path)
	}
	return f, nil
}

// errRegressed is -compare's non-zero exit.
var errRegressed = fmt.Errorf("B regressed against A")

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio B/A, the bound and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Env.NProc != b.Env.NProc || a.Env.Seconds != b.Env.Seconds {
		fmt.Fprintf(w, "warning: A ran on %d cores with %gs windows, B on %d cores with %gs: ratios do not compare\n",
			a.Env.NProc, a.Env.Seconds, b.Env.NProc, b.Env.Seconds)
	}
	regressed := false
	for _, name := range workloadNames {
		fmt.Fprintf(w, "%s  (A: %d sets, B: %d sets)\n", name, len(a.Sets), len(b.Sets))
		fmt.Fprintf(w, "  %-14s %12s %12s %16s %6s  %s\n", "metric", "A", "B", "B/A", "bound", "verdict")
		for _, m := range endToEnd {
			va, vb := a.values(name, m.Name, false), b.values(name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-14s missing from one file\n", m.Name)
				regressed = true
				continue
			}
			ratio, verdict := judge(m, va, vb)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %8.3fx of %-5.4g %5.0f%%  %s (%s is better)\n",
				m.Name, median(va), median(vb), ratio, median(va), 100*m.Bound, verdict, m.Better)
		}
		fa, fb := a.failedFrac(name), b.failedFrac(name)
		verdict := verdictOK
		if fb > fa {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "  %-14s %12.6f %12.6f %32s\n", "failed_frac", fa, fb, verdict)
	}
	if regressed {
		return errRegressed
	}
	return nil
}
