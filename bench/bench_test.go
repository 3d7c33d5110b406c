package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
)

func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tail(xs); pct != 95 || v != 190 {
		t.Errorf("tail of 1..200 = p%d %v, want p95 190 (ten samples beyond)", pct, v)
	}
	if pct, v := tail(xs[:9]); pct != 50 || v != 5 {
		t.Errorf("tail of 1..9 = p%d %v, want the median 5", pct, v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestUnionDurationCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := []interval{
		{at(50), at(60)}, // disjoint, listed first: order must not matter
		{at(0), at(10)},
		{at(5), at(20)},  // overlaps the previous
		{at(7), at(9)},   // nested
		{at(20), at(25)}, // touches
	}
	if got, want := unionDuration(iv), 35*time.Millisecond; got != want {
		t.Errorf("unionDuration = %v, want %v", got, want)
	}
	if got := unionDuration(nil); got != 0 {
		t.Errorf("unionDuration(nil) = %v, want 0", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lat := metricSpec{"op_ms_p50", "ms", lower, 0.10}
	thr := metricSpec{"ops_per_s", "1/s", higher, 0.10}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lat, []float64{100, 101, 99}, []float64{100, 102, 98}, verdictOK},
		{"within bound", lat, []float64{100, 101, 99}, []float64{108, 109, 107}, verdictOK},
		{"slower", lat, []float64{100, 101, 99}, []float64{115, 116, 114}, verdictRegressed},
		{"faster", lat, []float64{100, 101, 99}, []float64{50, 51, 49}, verdictOK},
		{"noisy", lat, []float64{80, 95, 105, 130}, []float64{90, 105, 115, 140}, verdictUnresolved},
		{"noisy but every run better", lat, []float64{80, 95, 105, 130}, []float64{40, 50, 55, 70}, verdictOK},
		{"too few runs for a spread", lat, []float64{80, 100, 130}, []float64{90, 105, 140}, verdictOK},
		{"throughput down", thr, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictRegressed},
		{"throughput up", thr, []float64{100, 101, 99}, []float64{150, 151, 149}, verdictOK},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// fileWith builds a one-set result file in which every workload reports the
// same end-to-end values.
func fileWith(opMs float64, failed int) resultFile {
	set := map[string]workloadResult{}
	for _, name := range workloadNames {
		o := output{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			o.Metrics[m.Name] = metricValue{Value: 10, Unit: m.Unit}
		}
		o.Metrics["op_ms_p50"] = metricValue{Value: opMs, Unit: "ms"}
		set[name] = workloadResult{EndToEnd: o, PerLayer: output{Attempted: 1}}
	}
	return resultFile{Env: env{NProc: 2, Seconds: 1}, Sets: []map[string]workloadResult{set}}
}

func TestCompareFilesExitsOnRegressionAndOnMoreFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", fileWith(100, 0))
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", fileWith(110, 0))); err != nil {
		t.Errorf("10%% slower is inside the 25%% bound, got %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("slow.json", fileWith(140, 0))); !errors.Is(err, errRegressed) {
		t.Errorf("40%% slower: got %v, want errRegressed", err)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("report does not name the regression:\n%s", out.String())
	}
	if err := compareFiles(&out, base, write("failing.json", fileWith(100, 1))); !errors.Is(err, errRegressed) {
		t.Errorf("a higher failed_frac: got %v, want errRegressed", err)
	}
}

func TestGeneratorsAreDeterministicUnderSeed(t *testing.T) {
	a, vmsA := dagSources(60, 7)
	b, vmsB := dagSources(60, 7)
	if !reflect.DeepEqual(a, b) || vmsA != vmsB {
		t.Error("dagSources(60, 7) differs between two calls")
	}
	if c, _ := dagSources(60, 8); reflect.DeepEqual(a, c) {
		t.Error("dagSources ignores its seed")
	}
	if vmsA != 30 || strings.Count(a["vars.ccl"], "variable ") != vmsA {
		t.Errorf("want one variable per VM, got %d VMs", vmsA)
	}
	for i := 0; i < vmsA; i++ {
		if !strings.Contains(a["rand.ccl"], `"`+vmName(i, "${var.rev_")) {
			t.Fatalf("VM %d does not carry its revision variable", i)
		}
	}
	if !reflect.DeepEqual(editSchedule(30, 7), editSchedule(30, 7)) ||
		reflect.DeepEqual(editSchedule(30, 7), editSchedule(30, 8)) {
		t.Error("editSchedule is not a function of its seed")
	}
	if !reflect.DeepEqual(driftSchedule(30, 5, 7, 3), driftSchedule(30, 5, 7, 3)) ||
		reflect.DeepEqual(driftSchedule(30, 5, 7, 3), driftSchedule(30, 5, 7, 4)) {
		t.Error("driftSchedule is not a function of seed and cycle")
	}
	if got := len(driftSchedule(3, 20, 1, 1)); got != 3 {
		t.Errorf("driftSchedule of 3 VMs picked %d", got)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and spec.go one
// definition.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricSpec                 `json:"end_to_end"`
		PerLayer   []metricSpec                 `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench measures %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, bench runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%v\n%v", b.PerLayer, perLayer)
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	workloads["broken"] = func(_ context.Context, _ runConfig, r *run) error {
		r.done(nil)
		r.done(errors.New("output was wrong"))
		return nil
	}
	defer delete(workloads, "broken")
	res, err := runWorkload(context.Background(), runConfig{workload: "broken", dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("got %+v, want incorrect with 1 of 2 failed", res)
	}
	if err := single(context.Background(), "broken", 1, 1, false, t.TempDir()); !errors.Is(err, errIncorrect) {
		t.Errorf("single returned %v, want errIncorrect (exit 1)", err)
	}
}

var toySizes = sizes{
	planDecls: 30, cycleDecls: 30, driftPerCycle: 5, // 46 instances
	tenants: 2, tenantVMs: 2, clients: 2, setupRepeats: 1,
}

// TestPlanColdCatchesForeignChange shows a real check firing without any
// edit to the program: somebody else renames a VM, and the next iteration's
// plan is no longer all no-ops.
func TestPlanColdCatchesForeignChange(t *testing.T) {
	ctx := context.Background()
	cfg := runConfig{workload: "plan_cold", seed: 1, sizes: toySizes, dir: t.TempDir()}
	e, err := newDagEnv(cfg, cfg.sizes.planDecls, func(e *dagEnv) error {
		if err := e.reopen(false); err != nil {
			return err
		}
		return deploy(ctx, e.st)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	rs := e.st.DB().Snapshot().Get(vmAddr(0))
	if err := e.shut(); err != nil {
		t.Fatal(err)
	}
	var digest uint64
	if _, err := planColdOnce(ctx, e, false, &digest); err != nil {
		t.Fatalf("converged stack: %v", err)
	}
	if _, err := e.host.sim.Update(ctx, cloud.UpdateRequest{
		Type: rs.Type, ID: rs.ID, Principal: "somebody-else",
		Attrs: map[string]eval.Value{"name": eval.String("renamed")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := planColdOnce(ctx, e, false, &digest); err == nil {
		t.Error("plan_cold accepted a plan that was not all no-ops")
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at toy
// size: the benchmark keeps compiling against the program and its checks
// keep passing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads and builds cloudlessd")
	}
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(context.Background(), runConfig{
					workload: name, seed: 3, window: time.Second, traced: traced,
					sizes: toySizes, dir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %+v", traced, res)
				}
				for _, m := range specs(traced) {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s missing or in the wrong unit", traced, m.Name)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if traced && res.Metrics["op_samples"].Value == 0 {
					t.Error("trace run reported no samples")
				}
			}
		})
	}
}
