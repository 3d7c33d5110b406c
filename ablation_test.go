package cloudless_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/graph"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

// Ablation benchmarks: per-component costs behind the end-to-end numbers,
// answering "where does plan/apply time go" for the design choices DESIGN.md
// calls out (expression re-evaluation at apply, scope assembly, executor
// overhead, in-proc vs HTTP cloud path).

func BenchmarkAblationParse(b *testing.B) {
	src := workload.WebTier("web", 4, 40)["web.ccl"]
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, diags := hcl.Parse("bench.ccl", src)
		if diags.HasErrors() {
			b.Fatal(diags.Error())
		}
	}
}

func BenchmarkAblationEvalExpression(b *testing.B) {
	expr, diags := hcl.ParseExpression("e.ccl",
		`join("-", [for z in var.zones : upper(z) if z != ""]) + "-" + cidrsubnet(var.base, 8, var.n)`)
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	ctx := eval.NewContext()
	ctx.Variables["var"] = eval.Object(map[string]eval.Value{
		"zones": eval.Strings("us-east-1a", "us-east-1b", "us-east-1c"),
		"base":  eval.String("10.0.0.0/16"),
		"n":     eval.Int(3),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, diags := eval.Evaluate(expr, ctx); diags.HasErrors() {
			b.Fatal(diags.Error())
		}
	}
}

// BenchmarkAblationScopeBuild measures the value store the way plan.Compute
// drives it: one ScopeFor and one Set per instance, interleaved, so every
// scope is built just after a write. Per-op cost divided by n is the cost of
// one scope; it stays flat as n grows when scope assembly follows the
// instance's references rather than the size of the module.
func BenchmarkAblationScopeBuild(b *testing.B) {
	written := eval.Object(map[string]eval.Value{"id": eval.String("id-1")})
	for _, vms := range []int{25, 100, 400} {
		b.Run(fmt.Sprintf("n%d", vms), func(b *testing.B) {
			ex := expandFilesB(b, workload.WebTier("web", 4, vms))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs := plan.NewValueStore(ex)
				for _, inst := range ex.Instances {
					_ = vs.ScopeFor(inst)
					vs.Set(inst.Addr, written)
				}
			}
		})
	}
}

// BenchmarkAblationWalkOverhead: the concurrent executor's bookkeeping cost
// per node (no-op callbacks).
func BenchmarkAblationWalkOverhead(b *testing.B) {
	g := graph.New()
	for i := 0; i < 500; i++ {
		g.AddNode(fmt.Sprintf("n%03d", i))
		if i > 0 {
			_ = g.AddEdge(fmt.Sprintf("n%03d", i), fmt.Sprintf("n%03d", i-1))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report := g.Walk(context.Background(), graph.WalkOptions{Concurrency: 8},
			func(string) error { return nil })
		if report.Err() != nil {
			b.Fatal(report.Err())
		}
	}
}

// BenchmarkAblationScheduleSim: the analytic scheduler on the same graph —
// the cost of predicting a deployment without running it.
func BenchmarkAblationScheduleSim(b *testing.B) {
	ex := expandFilesB(b, workload.WebTier("web", 4, 100))
	p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := apply.SimulateSchedule(p.Graph, p.Costs(), 10, apply.CriticalPathScheduler); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCloudPath compares the in-process cloud call with the
// full HTTP round trip (encode, TCP, decode).
func BenchmarkAblationCloudPath(b *testing.B) {
	sim := benchSim()
	ctx := context.Background()
	vpc, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1",
		Attrs: map[string]eval.Value{"name": eval.String("x"), "cidr_block": eval.String("10.0.0.0/16")}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("in-process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Get(ctx, "aws_vpc", vpc.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		srv := httptest.NewServer(cloud.NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
		defer srv.Close()
		client := cloud.NewClient(srv.URL, srv.Client())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Get(ctx, "aws_vpc", vpc.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlanEndToEnd: full plan computation across sizes.
func BenchmarkAblationPlanEndToEnd(b *testing.B) {
	for _, vms := range []int{25, 100} {
		b.Run(fmt.Sprintf("n%d", vms), func(b *testing.B) {
			ex := expandFilesB(b, workload.WebTier("web", 4, vms))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
				if diags.HasErrors() || p.Creates == 0 {
					b.Fatal("bad plan")
				}
			}
		})
	}
}

func expandFilesB(b *testing.B, files map[string]string) *config.Expansion {
	b.Helper()
	return mustExpand(b, files)
}
