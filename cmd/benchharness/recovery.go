package main

// CR: crash recovery — randomized kill/restart/recover convergence (§3.5,
// §3.6). Each trial deploys (or mutates) a web tier under a durable apply
// journal, kills the "process" at a random crash point — before an op
// reaches the cloud, after it landed but before the response was recorded,
// or mid-journal-write leaving a torn frame — then restarts: replay the
// journal, recover in-doubt ops under their original idempotency keys,
// re-plan, and finish. A third of crashed trials also crash during recovery
// itself and recover again.
//
// Convergence is checked exactly as the paper frames correctness for
// log-native control planes: the re-plan is a noop, every state entry
// exists in the cloud, and the cloud holds nothing state does not know
// about — zero orphans, zero duplicate creates, zero lost ops.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

var jsonOutCR string

type crResult struct {
	Experiment       string         `json:"experiment"`
	Trials           int            `json:"trials"`
	Converged        int            `json:"converged"`
	CrashesFired     int            `json:"crashes_fired"`
	RecoveryCrashes  int            `json:"recovery_crashes"`
	ByMode           map[string]int `json:"crashes_by_mode"`
	OpsConfirmed     int            `json:"ops_confirmed_from_journal"`
	OpsResumed       int            `json:"ops_resumed_in_doubt"`
	IdemReplays      int64          `json:"idempotent_create_replays"`
	Orphans          int            `json:"orphans_remaining"`
	DuplicateCreates int            `json:"duplicate_creates"`
	LostOps          int            `json:"lost_ops"`
	RecoveryP50Ms    float64        `json:"recovery_latency_p50_ms"`
	RecoveryP95Ms    float64        `json:"recovery_latency_p95_ms"`
	RecoveryMaxMs    float64        `json:"recovery_latency_max_ms"`
}

var crModeNames = [...]string{"crash-before-op", "crash-after-op", "torn-journal-frame"}

// crExtras rides along with the web tier so the mutation phase has a
// resource it can replace and one it can delete without tripping the sim's
// dependency tracking (nothing references either of them).
const crExtras = `
resource "aws_virtual_machine" "solo" {
  name    = "cr-solo"
  nic_ids = [aws_network_interface.cr[0].id]
}

resource "aws_storage_bucket" "scratch" {
  name = "cr-scratch"
}
`

func crSrc() string {
	return workload.WebTier("cr", 2, 4)["cr.ccl"] + crExtras
}

// crMutate derives the second-phase config: a load-balancer rename (update),
// a standalone-VM image change (replace), and a bucket removal (delete), so
// mutation crashes cover every op kind.
func crMutate(src string) string {
	s := strings.Replace(src, `"cr-lb"`, `"cr-lb-v2"`, 1)
	s = strings.Replace(s, "nic_ids = [aws_network_interface.cr[0].id]",
		"nic_ids = [aws_network_interface.cr[0].id]\n  image   = \"ami-linux-2027\"", 1)
	i := strings.Index(s, `resource "aws_storage_bucket" "scratch"`)
	return s[:i]
}

func crPlan(src string, prior *state.State) *plan.Plan {
	return mustPlan(mustExpand(map[string]string{"cr.ccl": src}), prior, plan.Options{})
}

func crApply(sim *cloud.Sim, src string, prior *state.State) *state.State {
	res := apply.Apply(context.Background(), sim, crPlan(src, prior), apply.Options{})
	if err := res.Err(); err != nil {
		panic(fmt.Sprintf("CR baseline apply: %s", err))
	}
	return res.State
}

func cr() {
	trials := 200
	if v := os.Getenv("CLOUDLESS_CHAOS_TRIALS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			panic("CLOUDLESS_CHAOS_TRIALS must be a positive integer")
		}
		trials = n
	}
	dir, err := os.MkdirTemp("", "cloudless-cr")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	out := crResult{Experiment: "CR", Trials: trials, ByMode: map[string]int{}}
	var latencies []float64
	var failures []string

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(42000 + trial)))
		sim := fastSim()
		journalPath := filepath.Join(dir, fmt.Sprintf("cr-%d.journal", trial))
		src := crSrc()
		base := state.New()
		// Half the trials crash a fresh deployment; half converge first and
		// crash a mutation apply (update + replace + delete ops in flight).
		if trial%2 == 1 {
			base = crApply(sim, src, base)
			src = crMutate(src)
		}

		mode := rng.Intn(3)
		point := cloud.CrashBeforeOp
		if mode == 1 || (mode == 2 && rng.Intn(2) == 0) {
			point = cloud.CrashAfterOp
		}
		afterN := 1 + rng.Intn(6)

		// Crash the apply.
		j, err := apply.NewJournal(journalPath, apply.Meta{Kind: "apply", Principal: "cloudless"})
		if err != nil {
			panic(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		fired := false
		sim.InjectCrash(point, afterN, func() {
			fired = true
			if mode == 2 {
				j.KillTorn()
			} else {
				j.Kill()
			}
			cancel()
		})
		res := apply.Apply(ctx, sim, crPlan(src, base), apply.Options{Journal: j, ContinueOnError: true})
		sim.ClearCrash()
		cancel()
		j.Close()
		if fired {
			out.CrashesFired++
			out.ByMode[crModeNames[mode]]++
		} else if err := res.Err(); err != nil {
			panic(fmt.Sprintf("CR trial %d: crash-free apply failed: %s", trial, err))
		}
		// Whether or not the crash fired, the journal stays and res.State is
		// discarded: the process died before the result reached golden state.

		// Restart: replay the journal and recover.
		reconciled := base
		js, err := apply.ReadJournal(journalPath)
		if err != nil {
			panic(err)
		}
		if js != nil {
			if fired && rng.Intn(3) == 0 {
				// Crash during recovery itself, then recover again.
				out.RecoveryCrashes++
				rctx, rcancel := context.WithCancel(context.Background())
				rpoint := cloud.CrashBeforeOp
				if rng.Intn(2) == 0 {
					rpoint = cloud.CrashAfterOp
				}
				sim.InjectCrash(rpoint, 1+rng.Intn(2), rcancel)
				_, _ = apply.Recover(rctx, sim, js, base, apply.Options{})
				sim.ClearCrash()
				rcancel()
			}
			st, rep := apply.Recover(context.Background(), sim, js, base, apply.Options{})
			if err := rep.Err(); err != nil {
				panic(fmt.Sprintf("CR trial %d: recover report: %s", trial, err))
			}
			reconciled = st
			latencies = append(latencies, float64(rep.Elapsed)/float64(time.Millisecond))
			out.OpsConfirmed += rep.Confirmed
			out.OpsResumed += rep.Resumed
			if err := os.Remove(journalPath); err != nil {
				panic(err)
			}
		}

		// Continue the plan to completion and check convergence.
		fin := apply.Apply(context.Background(), sim, crPlan(src, reconciled), apply.Options{})
		if err := fin.Err(); err != nil {
			panic(fmt.Sprintf("CR trial %d: continuation apply: %s", trial, err))
		}
		final := fin.State
		out.IdemReplays += sim.Metrics().IdemReplays

		lost := 0
		for _, ch := range crPlan(src, final).Changes {
			if ch.Action != plan.ActionNoop {
				lost++
			}
		}
		orphans, dupes := 0, 0
		if extra := sim.TotalResources() - final.Len(); extra > 0 {
			orphans = extra // cloud resources state does not know about
		} else if extra < 0 {
			dupes = -extra // state entries the cloud cannot back
		}
		missing := 0
		for _, addr := range final.Addrs() {
			rs := final.Get(addr)
			if _, err := sim.Get(context.Background(), rs.Type, rs.ID); err != nil {
				missing++
			}
		}
		out.LostOps += lost
		out.Orphans += orphans
		out.DuplicateCreates += dupes
		if lost == 0 && orphans == 0 && dupes == 0 && missing == 0 {
			out.Converged++
		} else {
			failures = append(failures, fmt.Sprintf(
				"trial %d (%s, afterN=%d): lost=%d orphans=%d dupes=%d missing=%d",
				trial, crModeNames[mode], afterN, lost, orphans, dupes, missing))
		}
	}

	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		out.RecoveryP50Ms = latencies[n/2]
		out.RecoveryP95Ms = latencies[n*95/100]
		out.RecoveryMaxMs = latencies[n-1]
	}

	table("metric\tvalue", [][]string{
		{"trials", fmt.Sprintf("%d", out.Trials)},
		{"converged", fmt.Sprintf("%d", out.Converged)},
		{"crashes fired", fmt.Sprintf("%d", out.CrashesFired)},
		{"  crash-before-op", fmt.Sprintf("%d", out.ByMode["crash-before-op"])},
		{"  crash-after-op", fmt.Sprintf("%d", out.ByMode["crash-after-op"])},
		{"  torn-journal-frame", fmt.Sprintf("%d", out.ByMode["torn-journal-frame"])},
		{"crashes during recovery", fmt.Sprintf("%d", out.RecoveryCrashes)},
		{"ops confirmed from journal", fmt.Sprintf("%d", out.OpsConfirmed)},
		{"in-doubt ops resumed", fmt.Sprintf("%d", out.OpsResumed)},
		{"idempotent create replays", fmt.Sprintf("%d", out.IdemReplays)},
		{"orphans remaining", fmt.Sprintf("%d", out.Orphans)},
		{"duplicate creates", fmt.Sprintf("%d", out.DuplicateCreates)},
		{"lost ops", fmt.Sprintf("%d", out.LostOps)},
		{"recovery latency p50", fmt.Sprintf("%.1fms", out.RecoveryP50Ms)},
		{"recovery latency p95", fmt.Sprintf("%.1fms", out.RecoveryP95Ms)},
		{"recovery latency max", fmt.Sprintf("%.1fms", out.RecoveryMaxMs)},
	})
	if len(failures) > 0 {
		panic("CR: trials failed to converge:\n  " + strings.Join(failures, "\n  "))
	}
	if jsonOutCR != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(jsonOutCR, append(data, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", jsonOutCR)
	}
}
