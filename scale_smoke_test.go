package cloudless_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"cloudless"
	"cloudless/internal/apply"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

// TestScaleSmoke is the CI guard for the scale-out planning core: on a
// ~2k-instance random DAG, a one-resource edit must replan with fewer than
// 10% of a full replan's instance evaluations (it is 1 vs 2001 today, so the
// bound leaves a wide margin before failing) and byte-identical output. Gated
// behind CLOUDLESS_SCALE_SMOKE so the ordinary test run stays fast; CI sets
// it in a dedicated job.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("CLOUDLESS_SCALE_SMOKE") == "" {
		t.Skip("set CLOUDLESS_SCALE_SMOKE=1 to run the 2k-instance scale smoke")
	}
	ctx := context.Background()
	files := workload.RandomDAG(1333, 7)
	ex := expandFiles(t, files)
	sim := newSim()

	p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	res := apply.Apply(ctx, sim, p, apply.Options{Principal: "cloudless", Concurrency: 128})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	st := res.State

	cache := plan.NewReplanCache()
	if _, diags := plan.Compute(ctx, ex, st, plan.Options{Cache: cache}); diags.HasErrors() {
		t.Fatal(diags.Error())
	}

	files["rand.ccl"] = replaceOnce(files["rand.ccl"],
		`name    = "r-vm-1"`, `name    = "r-vm-1-edited"`)
	ex2 := expandFiles(t, files)

	full, diags := plan.Compute(ctx, ex2, st, plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	incr, diags := plan.Compute(ctx, ex2, st, plan.Options{Cache: cache})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if encodeFacadePlan(incr) != encodeFacadePlan(full) {
		t.Fatal("incremental replan diverged from full replan")
	}
	if incr.EvaluatedInstances*10 >= full.EvaluatedInstances {
		t.Errorf("incremental replan evaluated %d of %d instances (>= 10%%)",
			incr.EvaluatedInstances, full.EvaluatedInstances)
	}
}

// TestFullPlanAllocationIsLinear pins the planner's cold path to the size of
// the estate: a no-op full plan over a converged random DAG four times the
// size allocates about four times the bytes (at most 6x). Bytes are
// deterministic where wall time is not; when every scope rebuilt its whole
// type root the ratio was ~14x.
func TestFullPlanAllocationIsLinear(t *testing.T) {
	ctx := context.Background()
	noopPlanBytes := func(decls int) uint64 {
		ex := expandFiles(t, workload.RandomDAG(decls, 7))
		p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
		if diags.HasErrors() {
			t.Fatal(diags.Error())
		}
		res := apply.Apply(ctx, newSim(), p, apply.Options{Principal: "cloudless", Concurrency: 128})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		noop, diags := plan.Compute(ctx, ex, res.State, plan.Options{})
		runtime.ReadMemStats(&after)
		if diags.HasErrors() || noop.PendingCount() != 0 || noop.Noops != len(ex.Instances) {
			t.Fatalf("plan over converged state: %s; %v", noop.Summary(), diags)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := noopPlanBytes(167), noopPlanBytes(667) // 252 and 1002 instances
	if large > 6*small {
		t.Errorf("no-op plan allocated %d B at 1002 instances, %d B at 252: %.1fx for 4x the size",
			large, small, float64(large)/float64(small))
	}
}

// newEditLoop deploys the 1002-instance workload.EditableDAG on an
// in-process sim, durably (commit log and apply journal, as edit_loop does),
// and returns edit: one SetVar + ReplanOffline + Apply that renames VM i.
func newEditLoop(tb testing.TB) (edit func(i int)) {
	tb.Helper()
	ctx := context.Background()
	files, vms := workload.EditableDAG(667, 7)
	dir := tb.TempDir()
	st, err := cloudless.Open(cloudless.Options{
		Sources:      files,
		Cloud:        newSim(),
		StateBackend: cloudless.BackendWAL,
		StateDir:     filepath.Join(dir, "state.wal"),
		JournalPath:  filepath.Join(dir, "run.journal"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = st.Close() })
	p, err := st.Replan(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := st.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
		tb.Fatal(err)
	}
	rev := 0
	return func(i int) {
		rev++
		if err := st.SetVar(fmt.Sprintf("rev_%d", i%vms), strconv.Itoa(rev)); err != nil {
			tb.Fatal(err)
		}
		p, err := st.ReplanOffline(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		if p.Updates != 1 || p.PendingCount() != 1 {
			tb.Fatalf("edit planned %s, want one update", p.Summary())
		}
		if _, _, err := st.Apply(ctx, p, cloudless.ApplyOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEditLoop is the repository benchmark's edit_loop in-process: one
// VM of a warm 1002-instance estate renamed, replanned through the cache and
// applied durably, per iteration.
func BenchmarkEditLoop(b *testing.B) {
	edit := newEditLoop(b)
	edit(0) // warm the replan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit(i + 1)
	}
}

// TestEditAllocationIsBounded pins what one warm edit of a 1002-instance
// estate may allocate. Snapshots, plans and applies share the state's
// records instead of copying them (DESIGN S21); one whole-state deep copy
// anywhere on the path is ~2.5 MB and four of them were 10 MB. An edit
// re-expands only the declaration that reads the variable and plans over
// the expansion's shared shape (DESIGN S26): BenchmarkEditLoop went from
// 3.64 MB and 31 189 allocations per edit to 1.18 MB and 3 025, and the
// edit measured here makes 1.09 MB and ~2 780. The ceilings are about 1.25x
// that, so a return of any per-edit O(N) rebuild (a full re-expansion alone
// is ~20 000 allocations) fails here.
func TestEditAllocationIsBounded(t *testing.T) {
	edit := newEditLoop(t)
	edit(0)
	edit(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	edit(2)
	runtime.ReadMemStats(&after)
	t.Logf("one warm edit: %d bytes, %d allocations", after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1400<<10 {
		t.Errorf("one warm edit at 1002 instances allocated %.2f MB, want at most 1.37", float64(got)/(1<<20))
	}
	if got := after.Mallocs - before.Mallocs; got > 3500 {
		t.Errorf("one warm edit at 1002 instances made %d allocations, want at most 3500", got)
	}
}
