// Benchmarks E1–E10: one per experiment in DESIGN.md's experiment index.
// Each benchmark exercises the cloudless mechanism against the baseline the
// paper criticizes; cmd/benchharness prints the corresponding tables with
// full parameter sweeps.
package cloudless_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/policy"
	"cloudless/internal/port"
	"cloudless/internal/provider"
	"cloudless/internal/rollback"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/validate"
	"cloudless/internal/workload"
)

func mustExpand(b *testing.B, files map[string]string) *config.Expansion {
	b.Helper()
	m, diags := config.Load(files)
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	return ex
}

func mustPlan(b *testing.B, ex *config.Expansion, prior *state.State, opts plan.Options) *plan.Plan {
	b.Helper()
	p, diags := plan.Compute(context.Background(), ex, prior, opts)
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	return p
}

func benchSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

// deployWorkload applies a workload to a fresh sim and returns sim + state.
func deployWorkload(b *testing.B, files map[string]string) (*cloud.Sim, *state.State, *config.Expansion) {
	b.Helper()
	sim := benchSim()
	ex := mustExpand(b, files)
	p := mustPlan(b, ex, state.New(), plan.Options{})
	res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
	return sim, res.State, ex
}

// BenchmarkE1Deployment measures simulated deployment makespan of a 100-
// resource web topology: sequential baseline vs parallel walks. The metric
// reported is simulated seconds (from the latency model), not wall time.
func BenchmarkE1Deployment(b *testing.B) {
	ex := mustExpand(b, workload.WebTier("web", 4, 40))
	p := mustPlan(b, ex, state.New(), plan.Options{})
	cases := []struct {
		name  string
		conc  int
		sched apply.Scheduler
	}{
		{"sequential", 1, apply.FIFOScheduler},
		{"baseline-fifo-10", 10, apply.FIFOScheduler},
		{"cloudless-cp-10", 10, apply.CriticalPathScheduler},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				res, err := apply.SimulateSchedule(p.Graph, p.Costs(), c.conc, c.sched)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan.Seconds(), "simulated-sec")
		})
	}
}

// BenchmarkE2Scheduling measures FIFO vs critical-path-first on the skewed
// topology under tight concurrency.
func BenchmarkE2Scheduling(b *testing.B) {
	ex := mustExpand(b, workload.SkewedLatency(24))
	p := mustPlan(b, ex, state.New(), plan.Options{})
	for _, sched := range []apply.Scheduler{apply.FIFOScheduler, apply.CriticalPathScheduler} {
		b.Run(sched.String(), func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				res, err := apply.SimulateSchedule(p.Graph, p.Costs(), 2, sched)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan.Seconds(), "simulated-sec")
		})
	}
}

// BenchmarkE3Incremental compares full replan (refresh everything, evaluate
// everything) with impact-scope incremental planning for a 1-resource delta.
func BenchmarkE3Incremental(b *testing.B) {
	files := workload.WebTier("web", 4, 60)
	sim, st, _ := deployWorkload(b, files)
	// Delta: the configuration renames the VMs (a one-resource change).
	files["web.ccl"] = strings.Replace(files["web.ccl"],
		`name    = "web-web-${count.index}"`,
		`name    = "web-web-v2-${count.index}"`, 1)
	ex := mustExpand(b, files)

	b.Run("baseline-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := mustPlan(b, ex, st, plan.Options{Refresh: true, Cloud: sim})
			if p.Updates != 60 {
				b.Fatalf("plan: %s", p.Summary())
			}
			b.ReportMetric(float64(p.RefreshReads), "refresh-reads")
			b.ReportMetric(float64(p.EvaluatedInstances), "evaluated")
		}
	})
	b.Run("cloudless-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := mustPlan(b, ex, st, plan.Options{
				Refresh: true, Cloud: sim,
				ImpactScope: []string{"aws_virtual_machine.web"},
			})
			if p.Updates != 60 {
				b.Fatalf("plan: %s", p.Summary())
			}
			b.ReportMetric(float64(p.RefreshReads), "refresh-reads")
			b.ReportMetric(float64(p.EvaluatedInstances), "evaluated")
		}
	})
}

// BenchmarkE4Locking measures concurrent disjoint team updates under the
// global lock vs per-resource locks.
func BenchmarkE4Locking(b *testing.B) {
	const teams = 8
	work := 2 * time.Millisecond
	seed := func() *state.State {
		st := state.New()
		for t := 0; t < teams; t++ {
			addr := fmt.Sprintf("aws_storage_bucket.t%d", t)
			st.Set(&state.ResourceState{Addr: addr, Type: "aws_storage_bucket",
				ID: fmt.Sprintf("b%d", t), Attrs: map[string]eval.Value{"n": eval.Int(0)}})
		}
		return st
	}
	for _, mode := range []statedb.LockMode{statedb.GlobalLock, statedb.ResourceLock} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := statedb.Open(seed(), mode)
				done := make(chan error, teams)
				for t := 0; t < teams; t++ {
					go func(team int) {
						txn := db.Begin("bench")
						addr := fmt.Sprintf("aws_storage_bucket.t%d", team)
						if err := txn.Lock(context.Background(), addr); err != nil {
							done <- err
							return
						}
						time.Sleep(work)
						rs, _ := txn.Get(addr)
						rs.Attrs["n"] = eval.Int(rs.Attr("n").AsInt() + 1)
						_ = txn.Put(rs)
						_, err := txn.Commit()
						done <- err
					}(t)
				}
				for t := 0; t < teams; t++ {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkE5Transactions measures transaction commit throughput under
// contention on a single hot resource.
func BenchmarkE5Transactions(b *testing.B) {
	st := state.New()
	st.Set(&state.ResourceState{Addr: "aws_storage_bucket.hot", Type: "aws_storage_bucket",
		ID: "hot", Attrs: map[string]eval.Value{"n": eval.Int(0)}})
	db := statedb.Open(st, statedb.ResourceLock)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			txn := db.Begin("inc")
			if err := txn.Lock(context.Background(), "aws_storage_bucket.hot"); err != nil {
				b.Fatal(err)
			}
			rs, _ := txn.Get("aws_storage_bucket.hot")
			rs.Attrs["n"] = eval.Int(rs.Attr("n").AsInt() + 1)
			_ = txn.Put(rs)
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// invalidAzureConfig seeds the paper's region-mismatch violation.
const invalidAzureConfig = `
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "westus"
}
resource "azure_virtual_network" "v" {
  name           = "v"
  location       = "westus"
  resource_group = azure_resource_group.rg.id
  address_space  = ["10.0.0.0/16"]
}
resource "azure_subnet" "s" {
  virtual_network_id = azure_virtual_network.v.id
  address_prefix     = "10.0.1.0/24"
  location           = "westus"
}
resource "azure_network_interface" "nic" {
  name      = "nic"
  location  = "westus"
  subnet_id = azure_subnet.s.id
}
resource "azure_virtual_machine" "vm" {
  name     = "vm"
  location = "eastus"
  nic_ids  = [azure_network_interface.nic.id]
}
`

// BenchmarkE6Validation measures the cost of catching a cloud-level
// violation at compile time (cloudless validate) vs at deploy time
// (baseline: plan + apply until the cloud errors out).
func BenchmarkE6Validation(b *testing.B) {
	ex := mustExpand(b, map[string]string{"main.ccl": invalidAzureConfig})
	b.Run("cloudless-compile-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := validate.Validate(ex, nil)
			if !res.HasErrors() {
				b.Fatal("violation not caught")
			}
		}
		b.ReportMetric(0, "api-calls")
	})
	b.Run("baseline-deploy-time", func(b *testing.B) {
		var calls float64
		for i := 0; i < b.N; i++ {
			sim := benchSim()
			p := mustPlan(b, ex, state.New(), plan.Options{})
			rt := provider.New(sim, provider.Options{MaxRetries: 1})
			res := apply.Apply(context.Background(), rt, p, apply.Options{ContinueOnError: true})
			if res.Err() == nil {
				b.Fatal("deploy should fail")
			}
			calls = float64(sim.Metrics().Calls)
		}
		b.ReportMetric(calls, "api-calls")
	})
}

// BenchmarkE7Drift compares full-scan vs activity-log drift detection on a
// deployed fleet with one drift event.
func BenchmarkE7Drift(b *testing.B) {
	sim, st, _ := deployWorkload(b, workload.Microservices(8, 3))
	ctx := context.Background()
	vpc := st.Get("aws_vpc.mesh")
	w := drift.NewWatcher(sim, "cloudless", sim.LastSeq())
	seq := 0
	driftOnce := func() {
		seq++
		_, err := sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
			Attrs: map[string]eval.Value{"name": eval.String(fmt.Sprintf("rogue-%d", seq))}, Principal: "rogue"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("full-scan", func(b *testing.B) {
		var calls float64
		for i := 0; i < b.N; i++ {
			driftOnce()
			rep, err := drift.FullScan(ctx, sim, st)
			if err != nil || !rep.HasDrift() {
				b.Fatalf("%v %v", rep, err)
			}
			calls = float64(rep.APICalls)
		}
		b.ReportMetric(calls, "api-calls")
	})
	b.Run("activity-log", func(b *testing.B) {
		var calls float64
		for i := 0; i < b.N; i++ {
			driftOnce()
			rep, err := w.Poll(ctx, st)
			if err != nil || !rep.HasDrift() {
				b.Fatalf("%v %v", rep, err)
			}
			calls = float64(rep.APICalls)
		}
		b.ReportMetric(calls, "api-calls")
	})
}

// BenchmarkE8Rollback compares the minimal rollback planner with the
// destroy-everything baseline on a mostly-reversible change set.
func BenchmarkE8Rollback(b *testing.B) {
	_, st, _ := deployWorkload(b, workload.WebTier("web", 4, 30))
	target := st.Clone()
	// 10 reversible changes + 1 irreversible leaf change (a VM image).
	for i := 0; i < 10; i++ {
		setAttr(st, fmt.Sprintf("aws_virtual_machine.web[%d]", i), "name", eval.String(fmt.Sprintf("tmp-%d", i)))
	}
	setAttr(st, "aws_virtual_machine.web[11]", "image", eval.String("ami-experimental"))

	b.Run("cloudless-minimal", func(b *testing.B) {
		var redeploys float64
		for i := 0; i < b.N; i++ {
			p := rollback.Compute(st, target)
			redeploys = float64(p.Creates + p.Replaces)
		}
		b.ReportMetric(redeploys, "redeployments")
	})
	b.Run("baseline-destroy-all", func(b *testing.B) {
		// The naive rollback redeploys every resource in the target.
		b.ReportMetric(float64(target.Len()), "redeployments")
		for i := 0; i < b.N; i++ {
			_ = target.Len()
		}
	})
}

// BenchmarkE9Porting measures import + optimization of a 64-NIC fleet and
// reports the compaction achieved.
func BenchmarkE9Porting(b *testing.B) {
	sim := benchSim()
	ctx := context.Background()
	vpc, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("legacy"), "cidr_block": eval.String("10.0.0.0/16")}})
	if err != nil {
		b.Fatal(err)
	}
	sub, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1",
		Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24")}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_network_interface", Region: "us-east-1",
			Attrs: map[string]eval.Value{
				"name":      eval.String(fmt.Sprintf("fleet-nic-%d", i)),
				"subnet_id": eval.String(sub.ID),
			}}); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name string
		opts port.ImportOptions
	}{
		{"naive", port.ImportOptions{}},
		{"optimized", port.ImportOptions{Optimize: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var m port.QualityMetrics
			for i := 0; i < b.N; i++ {
				res, err := port.Import(ctx, sim, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			b.ReportMetric(float64(m.Lines), "loc")
			b.ReportMetric(m.CompactionRatio, "compaction-x")
		})
	}
}

// BenchmarkE10Policy measures the policy controller's observation→decision
// round trip.
func BenchmarkE10Policy(b *testing.B) {
	ps, diags := policy.ParsePolicies("p.ccl", `
policy "scale" {
  phase = "operate"
  when  = metric.load > 0.8 && var.n < 100
  scale {
    variable = "n"
    delta    = 1
    max      = 1000000
  }
}
`)
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	eng := policy.NewEngine(ps)
	eng.Vars["n"] = eval.Int(1)
	metrics := map[string]eval.Value{"load": eval.Number(0.9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, diags := eng.Observe(metrics); diags.HasErrors() {
			b.Fatal(diags.Error())
		}
	}
}
