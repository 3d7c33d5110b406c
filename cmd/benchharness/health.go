package main

// HG: health-gated progressive applies — guarded vs unguarded rollouts under
// injected readiness faults (DESIGN.md §24). Each trial poisons a random
// resource kind so it comes up broken, then deploys a web slice twice from
// scratch: once with a plain apply (today's engines: the cloud ACKs the
// create, the walk declares victory) and once under the guard layer (probe
// readiness, trip fuses, canary first, auto-rollback the blast radius).
//
// The scored metric is what production inherits: resources left in the cloud
// that never turned ready, plus orphans state does not know about. An
// unguarded rollout must leave broken evidence behind (> 0); a guarded one
// must leave none (= 0) — it either converges fully ready or reverts fully.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/guard"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

var jsonOutHG string

type hgResult struct {
	Experiment         string  `json:"experiment"`
	Trials             int     `json:"trials"`
	UnguardedBroken    int     `json:"unguarded_broken_left_behind"`
	UnguardedTrialsBad int     `json:"unguarded_trials_with_breakage"`
	GuardedBroken      int     `json:"guarded_broken_left_behind"`
	GuardedConverged   int     `json:"guarded_converged"`
	GuardedReverted    int     `json:"guarded_reverted"`
	GateFailures       int     `json:"gate_failures"`
	FuseTrips          int     `json:"fuse_trips"`
	AutoRollbacks      int     `json:"auto_rollbacks"`
	HealthWaitP50Ms    float64 `json:"health_wait_p50_ms"`
	HealthWaitMaxMs    float64 `json:"health_wait_max_ms"`
}

const hgSrc = `
resource "aws_vpc" "main" {
  name       = "hg"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 3
  name       = "hg-s-${count.index}"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
}

resource "aws_network_interface" "nic" {
  count     = 2
  name      = "hg-nic-${count.index}"
  subnet_id = aws_subnet.s[count.index].id
}

resource "aws_virtual_machine" "web" {
  count   = 2
  name    = "hg-web-${count.index}"
  nic_ids = [aws_network_interface.nic[count.index].id]
}
`

var hgTypes = []string{"aws_vpc", "aws_subnet", "aws_network_interface", "aws_virtual_machine"}

func hgSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.TimeScale = 0.0005
	opts.ReadinessDelay = 4 * time.Second // 2ms wall-clock: probes really wait
	return cloud.NewSim(opts)
}

// hgBroken counts what a rollout left rotting in the cloud: resources whose
// health never reached ready, plus orphans the state file cannot account for.
func hgBroken(sim *cloud.Sim, st *state.State) int {
	ctx := context.Background()
	broken := 0
	deadline := time.Now().Add(5 * time.Second)
	for _, typ := range hgTypes {
		rs, err := sim.List(ctx, typ, "")
		if err != nil {
			panic(err)
		}
		for _, r := range rs {
			for {
				rep, err := sim.Health(ctx, typ, r.ID)
				if err != nil {
					panic(err)
				}
				if rep.Status == cloud.HealthReady {
					break
				}
				// Give a merely-provisioning resource time to settle so only
				// genuinely broken ones are scored.
				if rep.Status != cloud.HealthProvisioning || time.Now().After(deadline) {
					broken++
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if extra := sim.TotalResources() - st.Len(); extra > 0 {
		broken += extra
	}
	return broken
}

func hgPlan(prior *state.State) *plan.Plan {
	return mustPlan(mustExpand(map[string]string{"hg.ccl": hgSrc}), prior, plan.Options{})
}

func hg() {
	trials := 40
	if v := os.Getenv("CLOUDLESS_CHAOS_TRIALS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			panic("CLOUDLESS_CHAOS_TRIALS must be a positive integer")
		}
		trials = n
	}
	out := hgResult{Experiment: "HG", Trials: trials}
	var waits []float64

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(77000 + trial)))
		var poison *cloud.UnhealthySpec
		if rng.Intn(4) > 0 { // 3 in 4 trials inject a readiness fault
			poison = &cloud.UnhealthySpec{
				Count: 1 + rng.Intn(2),
				Type:  hgTypes[rng.Intn(len(hgTypes))],
			}
		}
		canary := 0.0
		if rng.Intn(2) == 0 {
			canary = 0.25
		}

		// Baseline: plain apply. The cloud ACKs every create, so the walk
		// finishes "successfully" with broken resources serving traffic.
		simU := hgSim()
		if poison != nil {
			simU.InjectUnhealthy(*poison)
		}
		resU := apply.Apply(context.Background(), simU, hgPlan(state.New()),
			apply.Options{ContinueOnError: true, Principal: "cloudless"})
		if err := resU.Err(); err != nil {
			panic(fmt.Sprintf("HG trial %d: unguarded apply failed outright: %s", trial, err))
		}
		if b := hgBroken(simU, resU.State); b > 0 {
			out.UnguardedBroken += b
			out.UnguardedTrialsBad++
		}

		// Guarded: same poison, same plan, health gates + fuse + canary +
		// auto-rollback.
		simG := hgSim()
		if poison != nil {
			simG.InjectUnhealthy(*poison)
		}
		resG := guard.Run(context.Background(), simG, hgPlan(state.New()),
			apply.Options{ContinueOnError: true, Principal: "cloudless"},
			guard.Options{Canary: canary})
		switch {
		case resG.Err() == nil:
			out.GuardedConverged++
		case resG.Reverted:
			out.GuardedReverted++
			out.AutoRollbacks++
		default:
			panic(fmt.Sprintf("HG trial %d: guarded run neither converged nor reverted: %s",
				trial, resG.Err()))
		}
		out.GateFailures += resG.GateFailures
		out.FuseTrips += len(resG.FuseTripped)
		out.GuardedBroken += hgBroken(simG, resG.State)
		waits = append(waits, float64(resG.HealthWait)/float64(time.Millisecond))
	}

	sort.Float64s(waits)
	if n := len(waits); n > 0 {
		out.HealthWaitP50Ms = waits[n/2]
		out.HealthWaitMaxMs = waits[n-1]
	}

	table("metric\tunguarded\tguarded", [][]string{
		{"trials", fmt.Sprintf("%d", out.Trials), fmt.Sprintf("%d", out.Trials)},
		{"broken/orphaned left behind", fmt.Sprintf("%d", out.UnguardedBroken), fmt.Sprintf("%d", out.GuardedBroken)},
		{"trials leaving breakage", fmt.Sprintf("%d", out.UnguardedTrialsBad), "0"},
		{"converged fully ready", "-", fmt.Sprintf("%d", out.GuardedConverged)},
		{"auto-reverted cleanly", "-", fmt.Sprintf("%d", out.GuardedReverted)},
		{"gate failures caught", "-", fmt.Sprintf("%d", out.GateFailures)},
		{"fuse trips", "-", fmt.Sprintf("%d", out.FuseTrips)},
		{"readiness wait p50", "-", fmt.Sprintf("%.1fms", out.HealthWaitP50Ms)},
		{"readiness wait max", "-", fmt.Sprintf("%.1fms", out.HealthWaitMaxMs)},
	})

	if out.GuardedBroken > 0 {
		panic(fmt.Sprintf("HG: guarded rollouts left %d broken resources behind", out.GuardedBroken))
	}
	if out.UnguardedBroken == 0 {
		panic("HG: unguarded baseline left nothing broken — the injections are not biting")
	}
	if jsonOutHG != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutHG, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutHG)
	}
}
