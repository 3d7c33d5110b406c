// Command benchharness regenerates the evaluation tables E1–E10 defined in
// DESIGN.md. Each table operationalizes one claim from §3 of the Cloudless
// paper, comparing the cloudless mechanism against the baseline behaviour
// of today's IaC engines. Results are printed as aligned text tables;
// EXPERIMENTS.md records a captured run.
//
//	go run ./cmd/benchharness            # all experiments
//	go run ./cmd/benchharness -only E3   # one experiment
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
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
	"cloudless/internal/telemetry"
	"cloudless/internal/validate"
	"cloudless/internal/workload"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E10, ET, SD, PV, CR, HG, EV, SC, SV, DR, RC)")
	flag.StringVar(&jsonOut, "json", "", "write machine-readable results (currently: ET) to this file")
	flag.StringVar(&jsonOutSD, "json-sd", "", "write machine-readable SD results to this file")
	flag.StringVar(&jsonOutPV, "json-pv", "", "write machine-readable PV results to this file")
	flag.StringVar(&jsonOutCR, "json-cr", "", "write machine-readable CR results to this file")
	flag.StringVar(&jsonOutHG, "json-hg", "", "write machine-readable HG results to this file")
	flag.StringVar(&jsonOutEV, "json-ev", "", "write machine-readable EV results to this file")
	flag.StringVar(&jsonOutSC, "json-sc", "", "write machine-readable SC results to this file")
	flag.StringVar(&jsonOutSV, "json-sv", "", "write machine-readable SV results to this file")
	flag.StringVar(&jsonOutDR, "json-dr", "", "write machine-readable DR results to this file")
	flag.StringVar(&jsonOutRC, "json-rc", "", "write machine-readable RC results to this file")
	flag.StringVar(&baselineSC, "baseline-sc", "", "compare SC against a recorded BENCH_scale.json; exit 1 on >5% regression")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"E1", "deployment makespan: parallel + critical path vs today's walks (§3.3)", e1},
		{"E2", "scheduling policy under bounded concurrency (§3.3)", e2},
		{"E3", "incremental planning vs full replan (§3.3)", e3},
		{"E4", "per-resource locks vs global lock for concurrent teams (§3.4)", e4},
		{"E5", "transaction isolation and throughput (§3.4)", e5},
		{"E6", "compile-time vs deploy-time validation (§3.2)", e6},
		{"E7", "drift detection: activity log vs full scan (§3.5)", e7},
		{"E8", "minimal rollback vs destroy-and-redeploy (§3.4)", e8},
		{"E9", "porting quality: naive vs optimized vs modules (§3.1)", e9},
		{"E10", "policy controller: decision latency and outlier detection (§3.6)", e10},
		{"ET", "telemetry instrumentation overhead: traced vs untraced apply and plan", et},
		{"SD", "state engine, commit log off and on: churn throughput and plan-during-apply (§3.4)", sd},
		{"PV", "provider runtime: coalesced drift scans and AIMD apply under 429s", pv},
		{"CR", "crash recovery: randomized kill/restart/recover convergence (§3.5, §3.6)", cr},
		{"HG", "health-gated progressive applies: guarded vs unguarded under readiness faults (§24)", hg},
		{"EV", "live ops plane: event-bus throughput, subscriber tax on apply, drop accounting (§25)", ev},
		{"SC", "scale-out planning core: incremental replan, bulk ops (§26)", sc},
		{"SV", "workspace server: multi-tenant job latency and fairness under 2x overload (§27)", sv},
		{"DR", "daemon disaster recovery: SIGKILL/restart chaos, zero lost jobs, replay cost (§28)", dr},
		{"RC", "continuous reconciliation: event-driven converge loop vs periodic FullScan, never-worse repair, breaker (§29)", rc},
	}
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.name)
		e.run()
		fmt.Println()
	}
}

func table(header string, rows [][]string) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
}

func mustExpand(files map[string]string) *config.Expansion {
	m, diags := config.Load(files)
	if diags.HasErrors() {
		panic(diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		panic(diags.Error())
	}
	return ex
}

func mustPlan(ex *config.Expansion, prior *state.State, opts plan.Options) *plan.Plan {
	p, diags := plan.Compute(context.Background(), ex, prior, opts)
	if diags.HasErrors() {
		panic(diags.Error())
	}
	return p
}

func fastSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

func deploy(files map[string]string) (*cloud.Sim, *state.State, *config.Expansion) {
	sim := fastSim()
	ex := mustExpand(files)
	p := mustPlan(ex, state.New(), plan.Options{})
	res := apply.Apply(context.Background(), sim, p, apply.Options{Principal: "cloudless"})
	if err := res.Err(); err != nil {
		panic(err)
	}
	return sim, res.State, ex
}

func simSec(d time.Duration) string { return fmt.Sprintf("%.0fs", d.Seconds()) }

// E1: deployment makespan across topology sizes.
func e1() {
	rows := [][]string{}
	for _, vms := range []int{10, 25, 50, 100, 200} {
		ex := mustExpand(workload.WebTier("web", 4, vms))
		p := mustPlan(ex, state.New(), plan.Options{})
		seq, _ := apply.SimulateSchedule(p.Graph, p.Costs(), 1, apply.FIFOScheduler)
		fifo10, _ := apply.SimulateSchedule(p.Graph, p.Costs(), 10, apply.FIFOScheduler)
		cp10, _ := apply.SimulateSchedule(p.Graph, p.Costs(), 10, apply.CriticalPathScheduler)
		cpInf, _ := apply.SimulateSchedule(p.Graph, p.Costs(), 0, apply.CriticalPathScheduler)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Graph.Len()),
			simSec(seq.Makespan), simSec(fifo10.Makespan), simSec(cp10.Makespan), simSec(cpInf.Makespan),
			fmt.Sprintf("%.1fx", float64(seq.Makespan)/float64(cp10.Makespan)),
		})
	}
	table("resources\tsequential\tfifo(10)\tcritical-path(10)\tcp(unbounded)\tspeedup(cp10 vs seq)", rows)
}

// E2: FIFO vs critical-path across fan widths and concurrency.
func e2() {
	rows := [][]string{}
	for _, fan := range []int{8, 16, 32, 64} {
		ex := mustExpand(workload.SkewedLatency(fan))
		p := mustPlan(ex, state.New(), plan.Options{})
		for _, conc := range []int{2, 4, 8} {
			fifo, _ := apply.SimulateSchedule(p.Graph, p.Costs(), conc, apply.FIFOScheduler)
			cp, _ := apply.SimulateSchedule(p.Graph, p.Costs(), conc, apply.CriticalPathScheduler)
			rows = append(rows, []string{
				fmt.Sprintf("%d", fan), fmt.Sprintf("%d", conc),
				simSec(fifo.Makespan), simSec(cp.Makespan),
				fmt.Sprintf("%.2fx", float64(fifo.Makespan)/float64(cp.Makespan)),
			})
		}
	}
	table("fan-width\tconcurrency\tfifo\tcritical-path\timprovement", rows)
}

// E3: full replan vs incremental for a 1-resource-group delta.
func e3() {
	rows := [][]string{}
	for _, vms := range []int{25, 50, 100, 200} {
		files := workload.WebTier("web", 4, vms)
		sim, st, _ := deploy(files)
		files["web.ccl"] = strings.Replace(files["web.ccl"],
			`"web-web-${count.index}"`, `"web-web-v2-${count.index}"`, 1)
		ex := mustExpand(files)

		t0 := time.Now()
		full := mustPlan(ex, st, plan.Options{Refresh: true, Cloud: sim})
		fullT := time.Since(t0)

		t0 = time.Now()
		incr := mustPlan(ex, st, plan.Options{Refresh: true, Cloud: sim,
			ImpactScope: []string{"aws_virtual_machine.web"}})
		incrT := time.Since(t0)

		if full.Updates != incr.Updates {
			panic("incremental plan found a different delta")
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", st.Len()),
			fmt.Sprintf("%d", full.RefreshReads), fmt.Sprintf("%d", incr.RefreshReads),
			fmt.Sprintf("%d", full.EvaluatedInstances), fmt.Sprintf("%d", incr.EvaluatedInstances),
			fullT.Round(time.Millisecond).String(), incrT.Round(time.Millisecond).String(),
		})
	}
	table("state-size\trefresh(full)\trefresh(incr)\teval(full)\teval(incr)\ttime(full)\ttime(incr)", rows)
}

// E4: concurrent disjoint team updates.
func e4() {
	rows := [][]string{}
	const perTeamWork = 10 * time.Millisecond
	for _, teams := range []int{2, 4, 8, 16} {
		seed := func() *state.State {
			st := state.New()
			for t := 0; t < teams; t++ {
				addr := fmt.Sprintf("aws_storage_bucket.t%d", t)
				st.Set(&state.ResourceState{Addr: addr, Type: "aws_storage_bucket",
					ID: fmt.Sprintf("b%d", t), Attrs: map[string]eval.Value{"n": eval.Int(0)}})
			}
			return st
		}
		run := func(mode statedb.LockMode) time.Duration {
			db := statedb.Open(seed(), mode)
			start := time.Now()
			done := make(chan struct{}, teams)
			for t := 0; t < teams; t++ {
				go func(team int) {
					txn := db.Begin("team")
					addr := fmt.Sprintf("aws_storage_bucket.t%d", team)
					if err := txn.Lock(context.Background(), addr); err != nil {
						panic(err)
					}
					time.Sleep(perTeamWork)
					rs, _ := txn.Get(addr)
					rs.Attrs["n"] = eval.Int(1)
					_ = txn.Put(rs)
					if _, err := txn.Commit(); err != nil {
						panic(err)
					}
					done <- struct{}{}
				}(t)
			}
			for t := 0; t < teams; t++ {
				<-done
			}
			return time.Since(start)
		}
		g := run(statedb.GlobalLock)
		r := run(statedb.ResourceLock)
		rows = append(rows, []string{
			fmt.Sprintf("%d", teams),
			g.Round(time.Millisecond).String(), r.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", float64(g)/float64(r)),
		})
	}
	table("teams\tglobal-lock\tper-resource\tspeedup", rows)
}

// E5: transaction throughput and the lost-update check.
func e5() {
	st := state.New()
	st.Set(&state.ResourceState{Addr: "aws_storage_bucket.hot", Type: "aws_storage_bucket",
		ID: "hot", Attrs: map[string]eval.Value{"n": eval.Int(0)}})
	rows := [][]string{}
	for _, writers := range []int{1, 4, 16} {
		db := statedb.Open(st, statedb.ResourceLock)
		const perWriter = 500
		start := time.Now()
		done := make(chan struct{}, writers)
		for w := 0; w < writers; w++ {
			go func() {
				for i := 0; i < perWriter; i++ {
					txn := db.Begin("inc")
					_ = txn.Lock(context.Background(), "aws_storage_bucket.hot")
					rs, _ := txn.Get("aws_storage_bucket.hot")
					rs.Attrs["n"] = eval.Int(rs.Attr("n").AsInt() + 1)
					_ = txn.Put(rs)
					_, _ = txn.Commit()
				}
				done <- struct{}{}
			}()
		}
		for w := 0; w < writers; w++ {
			<-done
		}
		elapsed := time.Since(start)
		final := db.Snapshot().Get("aws_storage_bucket.hot").Attr("n").AsInt()
		want := writers * perWriter
		rows = append(rows, []string{
			fmt.Sprintf("%d", writers),
			fmt.Sprintf("%.0f txn/s", float64(want)/elapsed.Seconds()),
			fmt.Sprintf("%d/%d", final, want),
			map[bool]string{true: "none", false: "LOST UPDATES"}[final == want],
		})
	}
	table("writers\tthroughput\tcommitted/expected\tlost-updates", rows)
}

// E6: a corpus of configurations with seeded cloud-constraint violations.
func e6() {
	type seeded struct {
		name string
		src  string
	}
	corpus := []seeded{
		{"region-mismatch", `
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
}`},
		{"password-coreq", `
resource "azure_resource_group" "rg2" {
  name     = "rg2"
  location = "eastus"
}
resource "azure_virtual_network" "v2" {
  name           = "v2"
  resource_group = azure_resource_group.rg2.id
  address_space  = ["10.0.0.0/16"]
}
resource "azure_subnet" "s2" {
  virtual_network_id = azure_virtual_network.v2.id
  address_prefix     = "10.0.1.0/24"
}
resource "azure_network_interface" "nic2" {
  name      = "nic2"
  subnet_id = azure_subnet.s2.id
}
resource "azure_virtual_machine" "vm2" {
  name           = "vm2"
  nic_ids        = [azure_network_interface.nic2.id]
  admin_password = "hunter2"
}`},
		{"peering-overlap", `
resource "azure_resource_group" "rg3" {
  name     = "rg3"
  location = "eastus"
}
resource "azure_virtual_network" "a3" {
  name           = "a3"
  resource_group = azure_resource_group.rg3.id
  address_space  = ["10.0.0.0/16"]
}
resource "azure_virtual_network" "b3" {
  name           = "b3"
  resource_group = azure_resource_group.rg3.id
  address_space  = ["10.0.128.0/17"]
}
resource "azure_vnet_peering" "p3" {
  vnet_a_id = azure_virtual_network.a3.id
  vnet_b_id = azure_virtual_network.b3.id
}`},
		{"subnet-outside-vpc", `
resource "aws_vpc" "v4" {
  name       = "v4"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "s4" {
  vpc_id     = aws_vpc.v4.id
  cidr_block = "192.168.0.0/24"
}`},
		{"ref-type-misuse", `
resource "aws_vpc" "v5" {
  name       = "v5"
  cidr_block = "10.0.0.0/16"
}
resource "aws_network_interface" "n5" {
  name      = "n5"
  subnet_id = aws_vpc.v5.id
}`},
	}
	rows := [][]string{}
	for _, c := range corpus {
		ex := mustExpand(map[string]string{"main.ccl": c.src})

		// Cloudless: compile time, zero API calls.
		t0 := time.Now()
		res := validate.Validate(ex, nil)
		valT := time.Since(t0)
		caught := res.HasErrors()

		// Baseline: deploy until the cloud errors out.
		sim := fastSim()
		p := mustPlan(ex, state.New(), plan.Options{})
		rt := provider.New(sim, provider.Options{MaxRetries: 1})
		ares := apply.Apply(context.Background(), rt, p, apply.Options{ContinueOnError: true})
		deployFailed := ares.Err() != nil
		wasted := sim.Metrics().Creates // resources provisioned before the failure

		rows = append(rows, []string{
			c.name,
			map[bool]string{true: "caught", false: "MISSED"}[caught],
			valT.Round(time.Microsecond).String(),
			map[bool]string{true: "failed at deploy", false: "deployed?!"}[deployFailed],
			fmt.Sprintf("%d created + %d API calls wasted", wasted, sim.Metrics().Calls),
		})
	}
	table("violation\tcloudless(compile)\tvalidate-time\tbaseline outcome\tbaseline waste", rows)
}

// E7: drift detection cost across fleet sizes.
func e7() {
	rows := [][]string{}
	ctx := context.Background()
	for _, services := range []int{4, 8, 16, 32} {
		sim, st, _ := deploy(workload.Microservices(services, 3))
		vpc := st.Get("aws_vpc.mesh")
		w := drift.NewWatcher(sim, "cloudless", sim.LastSeq())
		if _, err := sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
			Attrs: map[string]eval.Value{"name": eval.String("rogue")}, Principal: "rogue"}); err != nil {
			panic(err)
		}
		t0 := time.Now()
		scan, err := drift.FullScan(ctx, sim, st)
		if err != nil {
			panic(err)
		}
		scanT := time.Since(t0)
		t0 = time.Now()
		watch, err := w.Poll(ctx, st)
		if err != nil {
			panic(err)
		}
		watchT := time.Since(t0)
		if !scan.HasDrift() || !watch.HasDrift() {
			panic("drift not detected")
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", st.Len()),
			fmt.Sprintf("%d calls / %s", scan.APICalls, scanT.Round(time.Millisecond)),
			fmt.Sprintf("%d call / %s", watch.APICalls, watchT.Round(time.Millisecond)),
			fmt.Sprintf("%.0fx fewer calls", float64(scan.APICalls)/float64(max(watch.APICalls, 1))),
		})
	}
	table("resources\tfull-scan\tactivity-log\treduction", rows)
}

// E8: rollback redeployment across irreversible-change rates.
func e8() {
	rows := [][]string{}
	for _, irreversible := range []int{0, 1, 4, 16} {
		_, st, _ := deploy(workload.WebTier("web", 4, 30))
		target := st.Clone()
		// 10 reversible renames + N irreversible image changes, each on a
		// copy of the record: target shares st's records.
		edit := func(i int, name string, v eval.Value) {
			rs := st.Get(fmt.Sprintf("aws_virtual_machine.web[%d]", i)).Clone()
			rs.Attrs[name] = v
			rs.Generation = 0 // no longer what the cloud answered
			st.Set(rs)
		}
		for i := 0; i < 10; i++ {
			edit(i, "name", eval.String(fmt.Sprintf("x-%d", i)))
		}
		for i := 0; i < irreversible; i++ {
			edit(10+i, "image", eval.String("ami-x"))
		}
		p := rollback.Compute(st, target)
		// Only the edited images are irreversible; the renames, and the
		// balancer's reference to any replaced VM, revert in place.
		wantUpdates := 10
		if irreversible > 0 {
			wantUpdates++
		}
		if p.Replaces != irreversible || p.Updates != wantUpdates {
			panic(fmt.Sprintf("E8: %d irreversible changes plan %s, want %d to replace and %d to change",
				irreversible, p.Summary(), irreversible, wantUpdates))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", irreversible),
			fmt.Sprintf("%d", p.Updates),
			fmt.Sprintf("%d", p.Creates+p.Replaces),
			fmt.Sprintf("%d", target.Len()),
			fmt.Sprintf("%.0f%%", 100*(1-float64(p.Creates+p.Replaces)/float64(target.Len()))),
		})
	}
	table("irreversible-changes\tin-place-reverts\tredeployments\tbaseline(redeploy all)\tredeployment avoided", rows)
}

// E9: porting quality across fleet sizes and modes.
func e9() {
	ctx := context.Background()
	rows := [][]string{}
	for _, nics := range []int{8, 32, 128} {
		sim := fastSim()
		vpc, _ := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1",
			Attrs: map[string]eval.Value{"name": eval.String("legacy"), "cidr_block": eval.String("10.0.0.0/16")}})
		sub, _ := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1",
			Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24")}})
		for i := 0; i < nics; i++ {
			if _, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_network_interface", Region: "us-east-1",
				Attrs: map[string]eval.Value{
					"name":      eval.String(fmt.Sprintf("fleet-nic-%d", i)),
					"subnet_id": eval.String(sub.ID),
				}}); err != nil {
				panic(err)
			}
		}
		naive, err := port.Import(ctx, sim, port.ImportOptions{})
		if err != nil {
			panic(err)
		}
		opt, err := port.Import(ctx, sim, port.ImportOptions{Optimize: true})
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", naive.Metrics.ResourceInstances),
			fmt.Sprintf("%d loc / %d blocks", naive.Metrics.Lines, naive.Metrics.Blocks),
			fmt.Sprintf("%d loc / %d blocks", opt.Metrics.Lines, opt.Metrics.Blocks),
			fmt.Sprintf("%.1fx", opt.Metrics.CompactionRatio),
			fmt.Sprintf("%.0f%%", opt.Metrics.ReferenceRatio*100),
		})
	}
	table("resources\tnaive output\toptimized output\tcompaction\treferences linked", rows)
}

// E10: policy decision latency + outlier detection accuracy.
func e10() {
	ps, diags := policy.ParsePolicies("p.ccl", `
policy "scale" {
  phase = "operate"
  when  = metric.load > 0.8
  scale {
    variable = "n"
    delta    = 1
    max      = 1000000
  }
}
`)
	if diags.HasErrors() {
		panic(diags.Error())
	}
	eng := policy.NewEngine(ps)
	eng.Vars["n"] = eval.Int(1)
	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, d := eng.Observe(map[string]eval.Value{"load": eval.Number(0.9)}); d.HasErrors() {
			panic(d.Error())
		}
	}
	perDecision := time.Since(start) / iters
	fmt.Printf("observation -> decision round trip: %s/decision (%d decisions)\n",
		perDecision.Round(time.Microsecond), iters)

	// Outlier detection on a seeded corpus: 50 conventional buckets, then a
	// batch of 10 with 3 seeded deviations.
	corpusSrc := ""
	for i := 0; i < 50; i++ {
		corpusSrc += fmt.Sprintf("resource \"aws_storage_bucket\" \"b%d\" {\n  name = \"b-%d\"\n  versioning = true\n}\n", i, i)
	}
	ts := policy.NewTemplateSet()
	ts.Learn(mustExpand(map[string]string{"c.ccl": corpusSrc}))

	newSrc := ""
	for i := 0; i < 10; i++ {
		v := "true"
		if i < 3 {
			v = "false" // seeded outliers
		}
		newSrc += fmt.Sprintf("resource \"aws_storage_bucket\" \"n%d\" {\n  name = \"n-%d\"\n  versioning = %s\n}\n", i, i, v)
	}
	outliers := ts.Detect(mustExpand(map[string]string{"n.ccl": newSrc}), policy.DetectOptions{})
	tp := 0
	for _, o := range outliers {
		if o.Attr == "versioning" {
			tp++
		}
	}
	fmt.Printf("outlier detection: %d seeded deviations, %d flagged (%d true positives, %d false positives)\n",
		3, len(outliers), tp, len(outliers)-tp)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// jsonOut, when non-empty, receives machine-readable ET results.
var jsonOut string

// etResult is the recorded outcome of the ET overhead experiment.
type etResult struct {
	Experiment       string               `json:"experiment"`
	Runs             int                  `json:"runs"`
	ApplyOffMs       float64              `json:"apply_ms_off"`
	ApplyOnMs        float64              `json:"apply_ms_on"`
	ApplyOverheadPct float64              `json:"apply_overhead_pct"`
	PlanOffMs        float64              `json:"plan_ms_off"`
	PlanOnMs         float64              `json:"plan_ms_on"`
	PlanOverheadPct  float64              `json:"plan_overhead_pct"`
	SpansRecorded    int                  `json:"spans_recorded"`
	APICalls         int64                `json:"api_calls"`
	SpanSummary      []telemetry.SpanStat `json:"span_summary"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; n is tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// telemetrySummaryTable prints the per-span p50/p95 attribution and API-call
// counts a traced run produced.
func telemetrySummaryTable(rec *telemetry.Recorder) {
	rows := [][]string{}
	msf := func(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond)) }
	for _, st := range rec.Summary() {
		rows = append(rows, []string{st.Name, fmt.Sprintf("%d", st.Count),
			msf(st.Total), msf(st.P50), msf(st.P95), msf(st.Max)})
	}
	table("span\tcount\ttotal\tp50\tp95\tmax", rows)
	fmt.Printf("api calls: %d (throttled: %d)\n",
		rec.Metrics().CounterSum("cloud.api_calls"), rec.Metrics().CounterSum("cloud.throttled"))
}

// ET: instrumentation overhead. The same E1-style apply (real walk against
// the simulator, modeled latency scaled way down but still dominant) and
// E3-style full-refresh plan run with and without a recorder attached; the
// medians bound the telemetry tax.
func et() {
	const (
		runs = 5
		vms  = 50
	)
	files := workload.WebTier("web", 4, vms)

	simOpts := cloud.DefaultOptions()
	simOpts.DisableRateLimit = true
	simOpts.TimeScale = 0.0002 // 90s VM create -> 18ms modeled latency

	runApply := func(traced bool) (float64, *telemetry.Recorder) {
		sim := cloud.NewSim(simOpts)
		p := mustPlan(mustExpand(files), state.New(), plan.Options{})
		ctx := context.Background()
		var rec *telemetry.Recorder
		if traced {
			rec = telemetry.NewRecorder(telemetry.Config{})
			ctx = telemetry.WithRecorder(ctx, rec)
		}
		t0 := time.Now()
		res := apply.Apply(ctx, sim, p, apply.Options{
			Concurrency: 10, Scheduler: apply.CriticalPathScheduler, Principal: "cloudless",
		})
		if err := res.Err(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0)) / float64(time.Millisecond), rec
	}

	// A deployed stack for the plan side: full refresh re-reads every
	// resource, the plan-time hot path.
	planSim := cloud.NewSim(simOpts)
	res0 := apply.Apply(context.Background(), planSim,
		mustPlan(mustExpand(files), state.New(), plan.Options{}),
		apply.Options{Principal: "cloudless"})
	if err := res0.Err(); err != nil {
		panic(err)
	}
	planState := res0.State
	runPlan := func(traced bool) (float64, *telemetry.Recorder) {
		ctx := context.Background()
		var rec *telemetry.Recorder
		if traced {
			rec = telemetry.NewRecorder(telemetry.Config{})
			ctx = telemetry.WithRecorder(ctx, rec)
		}
		t0 := time.Now()
		p, diags := plan.Compute(ctx, mustExpand(files), planState, plan.Options{Refresh: true, Cloud: planSim})
		if diags.HasErrors() {
			panic(diags.Error())
		}
		_ = p
		return float64(time.Since(t0)) / float64(time.Millisecond), rec
	}

	var applyOff, applyOn, planOff, planOn []float64
	var lastRec *telemetry.Recorder
	var spans int
	var apiCalls int64
	for i := 0; i < runs; i++ {
		off, _ := runApply(false)
		on, rec := runApply(true)
		applyOff, applyOn = append(applyOff, off), append(applyOn, on)
		lastRec, spans = rec, rec.SpanCount()
		apiCalls = rec.Metrics().CounterSum("cloud.api_calls")
		pOff, _ := runPlan(false)
		pOn, _ := runPlan(true)
		planOff, planOn = append(planOff, pOff), append(planOn, pOn)
	}
	res := etResult{
		Experiment: "ET", Runs: runs,
		ApplyOffMs: median(applyOff), ApplyOnMs: median(applyOn),
		PlanOffMs: median(planOff), PlanOnMs: median(planOn),
		SpansRecorded: spans, APICalls: apiCalls,
		SpanSummary: lastRec.Summary(),
	}
	res.ApplyOverheadPct = (res.ApplyOnMs - res.ApplyOffMs) / res.ApplyOffMs * 100
	res.PlanOverheadPct = (res.PlanOnMs - res.PlanOffMs) / res.PlanOffMs * 100

	table("phase\tuntraced\ttraced\toverhead", [][]string{
		{"apply (E1-style)", fmt.Sprintf("%.1fms", res.ApplyOffMs), fmt.Sprintf("%.1fms", res.ApplyOnMs), fmt.Sprintf("%+.1f%%", res.ApplyOverheadPct)},
		{"plan  (E3-style)", fmt.Sprintf("%.1fms", res.PlanOffMs), fmt.Sprintf("%.1fms", res.PlanOnMs), fmt.Sprintf("%+.1f%%", res.PlanOverheadPct)},
	})
	fmt.Printf("spans per traced apply: %d\n", spans)
	fmt.Println("\ntraced apply attribution:")
	telemetrySummaryTable(lastRec)

	if jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
}
