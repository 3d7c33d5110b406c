package main

import (
	"fmt"
	"strings"
	"time"

	cloudless "cloudless"
	"cloudless/internal/server"
)

// cmdReconcile manages a hosted workspace's continuous-reconciliation
// controller (DESIGN.md S29). Remote-only: the controller lives in
// cloudlessd, next to the workspace it converges.
//
//	cloudlessctl reconcile on     -server URL -workspace w [-mode repair|detect]
//	cloudlessctl reconcile off    -server URL -workspace w
//	cloudlessctl reconcile status -server URL -workspace w
//	cloudlessctl reconcile watch  -server URL -workspace w
func cmdReconcile(args []string) error {
	sub := "status"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	c := newCommon("reconcile")
	mode := c.fs.String("mode", "repair", `with "on": "repair" auto-repairs drift through guarded applies, "detect" only surfaces it`)
	fullScanEvery := c.fs.Duration("full-scan-every", 0,
		`with "on": periodic safety-net full-scan interval (0 = controller default, negative disables)`)
	_ = c.fs.Parse(args)
	if *c.server == "" {
		return fmt.Errorf("reconcile requires -server <url> -workspace <name>: the controller runs inside cloudlessd")
	}
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	cl, ws, ctx := t.cl, t.ws, t.ctx

	switch sub {
	case "on":
		req := server.ReconcilerRequest{Enabled: true, Mode: *mode}
		if *fullScanEvery < 0 {
			req.FullScanEveryMs = -1
		} else {
			req.FullScanEveryMs = int(*fullScanEvery / time.Millisecond)
		}
		st, err := cl.SetReconciler(ctx, ws, req)
		if err != nil {
			return err
		}
		fmt.Printf("reconciler enabled on %s (mode %s, watermark #%d)\n", st.Workspace, st.Mode, st.Watermark)
		return nil
	case "off":
		st, err := cl.SetReconciler(ctx, ws, server.ReconcilerRequest{Enabled: false})
		if err != nil {
			return err
		}
		fmt.Printf("reconciler disabled on %s\n", st.Workspace)
		return nil
	case "status":
		st, err := cl.ReconcilerStatus(ctx, ws)
		if err != nil {
			return err
		}
		printReconcilerStatus(st)
		return nil
	case "watch":
		// The context already cancels on SIGINT/SIGTERM (connect), so ^C
		// ends the follow cleanly.
		return follow(ctx, cl, ws, 0, 25*time.Second, false, reconcileLine)
	default:
		return fmt.Errorf("unknown reconcile subcommand %q (want on, off, status, or watch)", sub)
	}
}

func printReconcilerStatus(st server.ReconcilerStatus) {
	if !st.Enabled {
		fmt.Printf("reconciler on %s: disabled\n", st.Workspace)
		return
	}
	mode := st.Mode
	if st.BreakerOpen {
		mode += " (BREAKER OPEN: degraded to detect-only)"
	} else if st.DetectOnly {
		mode += " (detect-only)"
	}
	fmt.Printf("reconciler on %s: %s, mode %s\n", st.Workspace, st.State, mode)
	fmt.Printf("  watermark #%d (ingested #%d)  events seen %d, dropped %d\n",
		st.Watermark, st.IngestSeq, st.EventsSeen, st.EventsDropped)
	fmt.Printf("  detected %d, repaired %d, repair failures %d, suppressed %d, breaker trips %d\n",
		st.Detected, st.Repaired, st.RepairFailures, st.Suppressed, st.BreakerTrips)
	fmt.Printf("  scans: %d scoped, %d full; unmanaged sightings %d\n",
		st.ScopedScans, st.FullScans, st.Unmanaged)
	if len(st.Addrs) == 0 {
		return
	}
	fmt.Printf("  %-40s %-10s %6s %7s %5s %s\n", "address", "state", "drifts", "repairs", "fails", "detail")
	for _, a := range st.Addrs {
		detail := a.LastError
		switch {
		case a.SuppressMs > 0:
			detail = fmt.Sprintf("suppressed for %.0fms (flapping)", a.SuppressMs)
		case a.RetryInMs > 0:
			detail = fmt.Sprintf("retry in %.0fms", a.RetryInMs)
			if a.LastError != "" {
				detail += ": " + a.LastError
			}
		}
		fmt.Printf("  %-40s %-10s %6d %7d %5d %s\n",
			a.Addr, a.State, a.Drifts, a.Repairs, a.Failures, detail)
	}
}

// reconcileLine renders reconciliation-relevant events as one-line progress
// entries; other kinds return "" and are skipped.
func reconcileLine(e cloudless.Event) string {
	ts := time.Unix(0, e.Time).Format("15:04:05")
	switch e.Kind {
	case "drift.detected":
		who := e.Principal
		if who == "" {
			who = "unknown actor"
		}
		return fmt.Sprintf("%s  drift  %-7s %s (by %s, %s wave)", ts, e.Action, e.Addr, who, e.Wave)
	case "reconcile.repaired":
		return fmt.Sprintf("%s  ok     repaired %s (%.0fms after detection)", ts, e.Addr, e.Ms)
	case "reconcile.repair_fail":
		return fmt.Sprintf("%s  FAIL   repair %s (attempt %d): %s", ts, e.Addr, e.N, e.Err)
	case "reconcile.suppressed":
		return fmt.Sprintf("%s  flap   %s suppressed after %d repairs in the flap window", ts, e.Addr, e.N)
	case "reconcile.breaker_open":
		return fmt.Sprintf("%s  BREAKER OPEN: %d consecutive failed repair rounds; degrading to detect-only", ts, e.N)
	case "reconcile.breaker_close":
		return fmt.Sprintf("%s  breaker closed: repairs re-enabled", ts)
	case "reconcile.full_scan":
		return fmt.Sprintf("%s  scan   full scan (%s): %d drifted", ts, e.Action, e.N)
	case "reconcile.gap":
		return fmt.Sprintf("%s  gap    %d bus event(s) dropped; scheduling catch-up full scan", ts, e.N)
	}
	return ""
}
