package chaosd

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/jobs"
	"cloudless/internal/reconcile"
	"cloudless/internal/server"
	"cloudless/internal/workload"
)

// This file is the continuous-reconciliation chaos drill (DESIGN.md S29):
// the same subprocess SIGKILL harness as the DR drill, but aimed at the
// converge loop. Each trial injects foreign drift into the external sim and
// kills the daemon either mid-poll (after the repair completed and its
// watermark was journaled) or mid-repair (drift still outstanding), then
// injects more drift while the daemon is down. The restarted daemon must:
//
//   - auto-resume the reconciler from its journaled checkpoint (no client
//     re-enable);
//   - resume the activity cursor at the journaled watermark — drift that
//     happened while it was down is caught by the event tail alone (the
//     periodic FullScan is disabled to prove it), so nothing is missed;
//   - not repeat repairs the previous life already completed — an acked
//     watermark means at most a cheap re-verify, never a second apply;
//   - converge: every injected mutation is reverted and the controller
//     quiesces with its ack caught up to the ingest cursor.

// ReconcileOptions tune RunReconcile.
type ReconcileOptions struct {
	// Trials is the kill/restart budget (required > 0).
	Trials int
	// Seed feeds the deterministic trial schedule (default 1).
	Seed int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// ReconcileResult is the drill outcome. Any non-zero invariant counter means
// the self-healing contract broke.
type ReconcileResult struct {
	Trials         int `json:"trials"`
	Kills          int `json:"kills"`
	MidRepairKills int `json:"mid_repair_kills"` // drift was outstanding at SIGKILL
	DriftInjected  int `json:"drift_injected"`
	Repaired       int `json:"repaired"` // repairs reported by the final daemon life

	NotResumed         int `json:"not_resumed"`         // restarts where the reconciler did not auto-enable
	WatermarkRegressed int `json:"watermark_regressed"` // resumed cursor never re-reached the pre-kill ack
	MissedDrift        int `json:"missed_drift"`        // injected drift never repaired
	DuplicateRepairs   int `json:"duplicate_repairs"`   // post-restart mutation of an already-repaired target
	FullScans          int `json:"full_scans"`          // must stay 0: the event path alone carries the drill

	failures []string
}

// Failures returns human-readable invariant violations (empty = clean).
func (r *ReconcileResult) Failures() []string { return r.failures }

// rcTenant is the drill's single workspace.
const rcTenant = "rc-0"

// rcTarget is one driftable resource: its type, cloud ID, and declared name
// (what every repair must restore).
type rcTarget struct {
	typ, id, declared string
}

// RunReconcile executes the reconciliation chaos drill.
func RunReconcile(dir string, opts ReconcileOptions) (*ReconcileResult, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("chaosd: Trials must be positive")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	h, err := NewHarness(dir, opts.Seed, opts.Logf)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	logf := h.logf
	if opts.Logf != nil {
		logf = opts.Logf
	}

	ctx := context.Background()
	if _, err := h.Start(ctx); err != nil {
		return nil, err
	}
	res := &ReconcileResult{Trials: opts.Trials}

	// One web tier, deployed and then watched by the reconciler.
	if _, err := h.Client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
		Name: rcTenant, Sources: workload.WebTier(rcTenant, 2, 2),
	}); err != nil {
		return nil, fmt.Errorf("chaosd: create %s: %w", rcTenant, err)
	}
	if err := h.runJob(ctx, rcTenant, "apply"); err != nil {
		return nil, err
	}

	// Periodic FullScan off: every catch must come from the activity tail
	// resuming at the journaled watermark. Flap damping needs no override:
	// it remembers repairs per process, suppression takes a drift after
	// FlapThreshold (3) repairs of one target, and a daemon life sees at
	// most three drifts (a trial's pre-kill and downtime ones, then the
	// next trial's pre-kill one) before a trial kills it.
	if _, err := h.Client.SetReconciler(ctx, rcTenant, server.ReconcilerRequest{
		Enabled: true, Mode: "repair", FullScanEveryMs: -1,
	}); err != nil {
		return nil, fmt.Errorf("chaosd: enable reconciler: %w", err)
	}

	targets, err := h.findTargets(ctx)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	seq := 0
	for trial := 0; trial < opts.Trials; trial++ {
		midRepair := rng.Intn(2) == 1
		tgt := targets[rng.Intn(len(targets))]
		seq++
		if err := h.injectDrift(ctx, tgt, fmt.Sprintf("intruder-%d", seq)); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: inject: %w", trial, err)
		}
		res.DriftInjected++

		var preKillAck int64
		if midRepair {
			// Kill inside the detect/repair window: give the controller just
			// enough time to have seen the event and let its debounce run
			// out, not necessarily to have finished (and acked) the repair.
			time.Sleep(reconcile.Debounce + time.Duration(5+rng.Intn(40))*time.Millisecond)
			res.MidRepairKills++
		} else {
			// Kill mid-poll: wait until the repair completed AND its watermark
			// was acknowledged, so the next life owes this drift nothing.
			st, err := h.waitRepaired(ctx, tgt, 60*time.Second)
			if err != nil {
				return nil, fmt.Errorf("chaosd trial %d: %w", trial, err)
			}
			preKillAck = st.Watermark
		}
		if err := h.Kill(); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: kill: %w", trial, err)
		}
		res.Kills++

		// While the daemon is dead, the world keeps moving: drift a second
		// target. Only the journaled watermark can catch this.
		downTgt := targets[rng.Intn(len(targets))]
		seq++
		if err := h.injectDrift(ctx, downTgt, fmt.Sprintf("downtime-%d", seq)); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: downtime inject: %w", trial, err)
		}
		res.DriftInjected++
		markSeq := h.sim.LastSeq() // everything past this happens after restart

		if _, err := h.Start(ctx); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: restart: %w", trial, err)
		}

		// The reconciler must come back on its own (RecoverReconcilers).
		st, err := h.waitReconcilerEnabled(ctx, 15*time.Second)
		if err != nil {
			res.NotResumed++
			res.failures = append(res.failures, fmt.Sprintf("trial %d: reconciler not auto-resumed: %v", trial, err))
			continue
		}
		if preKillAck > 0 && st.Watermark < preKillAck {
			// A lagging first status read is fine; staying behind is not —
			// the resumed tail must re-reach the pre-kill ack promptly.
			if st2, err := h.waitWatermark(ctx, preKillAck, 30*time.Second); err != nil {
				res.WatermarkRegressed++
				res.failures = append(res.failures, fmt.Sprintf(
					"trial %d: watermark resumed at %d, never re-reached pre-kill ack %d",
					trial, st2.Watermark, preKillAck))
			}
		}

		// Every injected drift — pre-kill and downtime — ends up repaired.
		if _, err := h.waitRepaired(ctx, tgt, 60*time.Second); err != nil {
			res.MissedDrift++
			res.failures = append(res.failures, fmt.Sprintf("trial %d: pre-kill drift on %s missed: %v", trial, tgt.typ, err))
		}
		if _, err := h.waitRepaired(ctx, downTgt, 60*time.Second); err != nil {
			res.MissedDrift++
			res.failures = append(res.failures, fmt.Sprintf("trial %d: downtime drift on %s missed: %v", trial, downTgt.typ, err))
		}
		if err := h.waitQuiescent(ctx, 30*time.Second); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("trial %d: %v", trial, err))
		}

		// No duplicate repairs: in a mid-poll trial whose downtime drift hit a
		// DIFFERENT resource, the restarted life has no business mutating the
		// pre-kill target again — its repair was acked before the kill. Any
		// post-restart mutation of it by a non-intruder principal is a replay.
		if !midRepair && downTgt.id != tgt.id {
			evs, err := h.sim.Activity(ctx, markSeq)
			if err == nil {
				for _, ev := range evs {
					if ev.ID == tgt.id && ev.Principal != "chaos-intruder" {
						res.DuplicateRepairs++
						res.failures = append(res.failures, fmt.Sprintf(
							"trial %d: duplicate repair: %s %s re-mutated by %q after its acked repair",
							trial, ev.Op, ev.ID, ev.Principal))
						break
					}
				}
			}
		}

		if st, err := h.Client.ReconcilerStatus(ctx, rcTenant); err == nil {
			res.Repaired = int(st.Repaired)
			res.FullScans += int(st.FullScans)
			if st.FullScans > 0 {
				res.failures = append(res.failures, fmt.Sprintf(
					"trial %d: %d full scan(s) ran; the drill must be carried by the event path alone",
					trial, st.FullScans))
			}
		}
		if (trial+1)%5 == 0 || trial == opts.Trials-1 {
			logf("chaosd reconcile: trial %d/%d: kills=%d mid-repair=%d missed=%d dup=%d regressed=%d",
				trial+1, opts.Trials, res.Kills, res.MidRepairKills, res.MissedDrift, res.DuplicateRepairs, res.WatermarkRegressed)
		}
	}
	return res, nil
}

// findTargets resolves the driftable resources' cloud IDs and declared names
// (the web tier's VPC and security group — resources whose rename the
// reconciler must always revert).
func (h *Harness) findTargets(ctx context.Context) ([]rcTarget, error) {
	var targets []rcTarget
	for _, typ := range []string{"aws_vpc", "aws_security_group"} {
		rs, err := h.sim.List(ctx, typ, "")
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			targets = append(targets, rcTarget{typ: typ, id: r.ID, declared: r.Attrs["name"].AsString()})
		}
	}
	if len(targets) < 2 {
		return nil, fmt.Errorf("chaosd: found %d drift targets, want >= 2", len(targets))
	}
	return targets, nil
}

// injectDrift renames the target under a foreign principal.
func (h *Harness) injectDrift(ctx context.Context, tgt rcTarget, name string) error {
	_, err := h.sim.Update(ctx, cloud.UpdateRequest{
		Type: tgt.typ, ID: tgt.id,
		Attrs:     map[string]eval.Value{"name": eval.String(name)},
		Principal: "chaos-intruder",
	})
	return err
}

// waitRepaired polls until the target's cloud name matches its declared
// intent again AND the controller acked through its ingest cursor (so the
// repair is journaled, not merely applied), then returns that status.
func (h *Harness) waitRepaired(ctx context.Context, tgt rcTarget, timeout time.Duration) (server.ReconcilerStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		r, err := h.sim.Get(ctx, tgt.typ, tgt.id)
		if err == nil && r.Attrs["name"].AsString() == tgt.declared {
			return h.waitSettled(ctx, deadline)
		}
		if time.Now().After(deadline) {
			return server.ReconcilerStatus{}, fmt.Errorf("drift on %s/%s not repaired within %s", tgt.typ, tgt.id, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitSettled waits for the acknowledged watermark to catch the ingest
// cursor — i.e. outstanding work is not just applied but fully acked (and
// therefore checkpointed in the jobs journal).
func (h *Harness) waitSettled(ctx context.Context, deadline time.Time) (server.ReconcilerStatus, error) {
	var st server.ReconcilerStatus
	var err error
	for {
		st, err = h.Client.ReconcilerStatus(ctx, rcTenant)
		if err == nil && st.Enabled && st.Watermark > 0 && st.Watermark == st.IngestSeq {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("watermark never settled (ack %d, ingest %d, err %v)", st.Watermark, st.IngestSeq, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitReconcilerEnabled polls until the restarted daemon reports a running
// reconciler (RecoverReconcilers resumed it — the drill never re-enables).
func (h *Harness) waitReconcilerEnabled(ctx context.Context, timeout time.Duration) (server.ReconcilerStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := h.Client.ReconcilerStatus(ctx, rcTenant)
		if err == nil && st.Enabled {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("reconciler not enabled after restart (err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitWatermark polls until the acked watermark reaches at least want.
func (h *Harness) waitWatermark(ctx context.Context, want int64, timeout time.Duration) (server.ReconcilerStatus, error) {
	deadline := time.Now().Add(timeout)
	var st server.ReconcilerStatus
	var err error
	for {
		st, err = h.Client.ReconcilerStatus(ctx, rcTenant)
		if err == nil && st.Watermark >= want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("watermark stuck at %d, want >= %d", st.Watermark, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitQuiescent waits until the controller has nothing left to do: every
// address back to "ok" and the ack caught up with the ingest cursor.
func (h *Harness) waitQuiescent(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var st server.ReconcilerStatus
	var err error
	for {
		st, err = h.Client.ReconcilerStatus(ctx, rcTenant)
		if err == nil && st.Enabled && st.Watermark == st.IngestSeq {
			busy := false
			for _, a := range st.Addrs {
				if a.State != "ok" {
					busy = true
					break
				}
			}
			if !busy {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("controller never quiesced: ack=%d ingest=%d addrs=%+v", st.Watermark, st.IngestSeq, st.Addrs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runJob submits kind and waits for success.
func (h *Harness) runJob(ctx context.Context, tenant, kind string) error {
	st, err := h.Client.SubmitJob(ctx, tenant, server.JobRequest{Kind: kind})
	if err != nil {
		return fmt.Errorf("chaosd: submit %s %s: %w", tenant, kind, err)
	}
	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	fin, err := h.Client.WaitJob(wctx, tenant, st.ID)
	if err != nil {
		return fmt.Errorf("chaosd: wait %s %s: %w", tenant, kind, err)
	}
	if fin.Status != jobs.StatusSucceeded {
		return fmt.Errorf("chaosd: %s %s: %s (%s)", tenant, kind, fin.Status, fin.Err)
	}
	return nil
}
