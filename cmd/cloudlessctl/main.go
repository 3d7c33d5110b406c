// Command cloudlessctl is the Cloudless command-line interface: the Figure 1
// lifecycle as subcommands.
//
//	cloudlessctl validate  -dir ./infra
//	cloudlessctl plan      -dir ./infra [-data-dir ./infra/.cloudless] [-cloud URL]
//	cloudlessctl apply     -dir ./infra [-target addr]...
//	cloudlessctl apply     -dir ./infra -guard -canary 0.2
//	cloudlessctl apply     -dir ./infra -watch
//	cloudlessctl tail      -cloud http://host:8080 [-since 42]
//	cloudlessctl destroy   -dir ./infra
//	cloudlessctl drift     -dir ./infra [-scan]
//	cloudlessctl history   -dir ./infra
//	cloudlessctl rollback  -dir ./infra -to 7 [-dry-run]
//	cloudlessctl import    -out ./imported [-modules]
//	cloudlessctl synth     -template web-service -name shop -out ./generated
//
// Every stateful verb is a client of cloudlessd: it submits jobs to a hosted
// workspace with -server, and otherwise the same jobs to the project's own
// workspace, served from -data-dir by a cloudlessd in this process and
// reached through its handler, with no listener and no port (server.go).
// Either way the server owns the golden state, the journal and the event
// history, and the verb prints the jobs' wire summaries. With no -cloud URL
// an in-process simulator is used (handy for demos); with -cloud, any
// cloudsim server works.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	cloudless "cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/port"
	"cloudless/internal/provider"
	"cloudless/internal/server"
	"cloudless/internal/telemetry"
	"cloudless/internal/workspace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "validate":
		err = cmdValidate(args)
	case "plan":
		err = cmdPlanApply(args, false)
	case "apply":
		err = cmdPlanApply(args, true)
	case "destroy":
		err = cmdDestroy(args)
	case "drift":
		err = cmdDrift(args)
	case "tail":
		err = cmdTail(args)
	case "import":
		err = cmdImport(args)
	case "synth":
		err = cmdSynth(args)
	case "history":
		err = cmdHistory(args)
	case "rollback":
		err = cmdRollback(args)
	case "recover":
		err = cmdRecover(args)
	case "metrics":
		err = cmdMetrics(args)
	case "workspaces":
		err = cmdWorkspaces(args)
	case "reconcile":
		err = cmdReconcile(args)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "cloudlessctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudlessctl: %s\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cloudlessctl <command> [flags]

Commands:
  validate   compile-time validation (schema, semantic types, cloud constraints)
  plan       compute an execution plan
  apply      plan and apply (-guard health-gates it; -canary 0.2 canaries a fifth first;
             -watch streams live per-op progress, gate results, and rollbacks)
  destroy    delete everything in the golden state
  drift      detect out-of-band changes (activity log; -scan for full scan)
  tail       follow a cloud endpoint's activity log live (long-poll; -since resumes)
  import     port existing cloud resources to a CCL program, its state seeded in <out>/.cloudless
  synth      generate a CCL program from a template
  history    list the serials the time machine can still read: the golden state's
             last 64-127 commits, numbered as plan's "base serial" is
  rollback   roll back to one of them with minimal redeployment (-to serial, -dry-run)
  recover    reconcile a crashed run's journal with the cloud
             (needs the configuration in -dir, like every local command)
  metrics    summarize a trace file written with -trace-out (-prom for Prometheus text)
  workspaces list/create/delete workspaces on a cloudlessd server (-server URL)
  reconcile  manage a hosted workspace's self-healing converge loop
             (on/off/status/watch; -server URL -workspace name)

Lifecycle commands accept -trace-out <file> to record a Chrome/Perfetto
trace of the run (open at https://ui.perfetto.dev or chrome://tracing); each
job the command runs (plan, apply, ...) is a root span of its own.

Local mode is an in-process cloudlessd: the workspace's golden state and
journal live in -data-dir (default <dir>/.cloudless). Remote mode: plan, apply,
destroy, drift, history, rollback, recover, and tail accept -server <url>
-workspace <name> [-token <tok>] to run the same jobs against a workspace
hosted by a cloudlessd server.
`)
}

// commonFlags wires the flags shared by lifecycle commands.
type commonFlags struct {
	fs        *flag.FlagSet
	dir       *string
	dataDir   *string
	cloudURL  *string
	timeScale *float64
	policies  *string
	traceOut  *string

	// Remote-mode flags (see server.go).
	server    *string
	workspace *string
	token     *string

	// Guarded-apply flags; registered only by commands that apply.
	guard       *bool
	guardCanary *float64

	recorder *telemetry.Recorder
}

func newCommon(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:        fs,
		dir:       fs.String("dir", ".", "configuration directory (*.ccl)"),
		dataDir:   fs.String("data-dir", "", "the local workspace's golden state and journal (default <dir>/.cloudless)"),
		cloudURL:  fs.String("cloud", "", "cloud API base URL (empty = in-process simulator)"),
		timeScale: fs.Float64("time-scale", 0.0005, "in-process simulator latency scale"),
		policies:  fs.String("policies", "", "CCL policy file enforced across the lifecycle"),
		traceOut:  fs.String("trace-out", "", "write a Chrome/Perfetto trace of this run to the given file"),
		server:    fs.String("server", "", "cloudlessd base URL: run this command against a hosted workspace instead of the local one"),
		workspace: fs.String("workspace", "", "hosted workspace name (required with -server)"),
		token:     fs.String("token", "", "bearer token for -server (empty when the server runs without auth)"),
	}
}

// initTelemetry sets up the recorder when -trace-out is given. Call after
// flag parsing; the local workspace records its spans and metrics into it.
func (c *commonFlags) initTelemetry() {
	if *c.traceOut != "" {
		c.recorder = telemetry.NewRecorder(telemetry.Config{})
	}
}

// writeTrace exports the trace file. Deferred by every lifecycle command so
// traces survive command errors too.
func (c *commonFlags) writeTrace() {
	if c.recorder == nil {
		return
	}
	if err := c.recorder.WriteChromeTraceFile(*c.traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "cloudlessctl: write trace: %s\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d span(s) written to %s (open at https://ui.perfetto.dev)\n",
		c.recorder.SpanCount(), *c.traceOut)
}

func (c *commonFlags) cloud() cloud.Interface {
	if *c.cloudURL != "" {
		return cloud.NewClient(*c.cloudURL, nil)
	}
	opts := cloud.DefaultOptions()
	opts.TimeScale = *c.timeScale
	return cloud.NewSim(opts)
}

// policySource reads the -policies file ("" when none is given).
func (c *commonFlags) policySource() (string, error) {
	if *c.policies == "" {
		return "", nil
	}
	data, err := os.ReadFile(*c.policies)
	if err != nil {
		return "", fmt.Errorf("read policies: %w", err)
	}
	return string(data), nil
}

func cmdValidate(args []string) error {
	c := newCommon("validate")
	_ = c.fs.Parse(args)
	c.initTelemetry()
	defer c.writeTrace()
	policies, err := c.policySource()
	if err != nil {
		return err
	}
	// Validation reads no state: a stack over the configuration alone.
	stack, err := cloudless.Open(cloudless.Options{
		Dir: *c.dir, Cloud: c.cloud(), Policies: policies, Telemetry: c.recorder,
	})
	if err != nil {
		return err
	}
	defer stack.Close()
	res := stack.Validate()
	if len(res.Findings) == 0 {
		fmt.Println("configuration is valid")
		return nil
	}
	for _, f := range res.Findings {
		fmt.Println(f.Error())
		if f.Detail != "" {
			fmt.Printf("    %s\n", f.Detail)
		}
	}
	if res.HasErrors() {
		return fmt.Errorf("%d validation error(s)", len(res.Errors()))
	}
	return nil
}

// cmdPlanApply plans as one job, prints the plan, and for apply applies that
// exact plan by reference, streaming the workspace's event feed with -watch.
func cmdPlanApply(args []string, doApply bool) error {
	c := newCommon("plan")
	var targets multiFlag
	c.fs.Var(&targets, "target", "confine planning to the impact scope of this resource address (repeatable)")
	concurrency := c.fs.Int("concurrency", 10, "parallel cloud operations")
	watch := c.fs.Bool("watch", false,
		"stream live progress while applying: per-op results, wave boundaries, health-gate outcomes, fuse trips, rollbacks")
	c.guard = c.fs.Bool("guard", false,
		"health-gate the apply: probe each resource until ready, trip a failure fuse per run/region, auto-revert the blast radius when resources never turn ready")
	c.guardCanary = c.fs.Float64("canary", 0,
		"with -guard: apply this dependency-closed fraction of the changeset first and release the rest only if it converges healthy (0 disables)")
	_ = c.fs.Parse(args)
	c.initTelemetry()
	defer c.writeTrace()
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()

	planSt, err := t.run(server.JobRequest{Kind: "plan", Targets: targets}, false)
	if err != nil {
		return err
	}
	p, err := server.ResultAs[server.PlanSummary](planSt)
	if err != nil {
		return err
	}
	printPlan(p)
	if !doApply {
		return nil
	}
	if p.Pending() == 0 {
		fmt.Println("nothing to do")
		return nil
	}
	st, err := t.run(server.JobRequest{Kind: "apply", PlanJob: planSt.ID, Concurrency: *concurrency}, *watch)
	if st.Result == nil {
		return err
	}
	res, rerr := server.ResultAs[server.ApplySummary](st)
	if rerr != nil {
		return errors.Join(err, rerr)
	}
	for _, d := range res.Diagnoses {
		fmt.Print(d)
	}
	if res.GateFailures > 0 || len(res.FuseTripped) > 0 {
		fmt.Printf("guard: %d op(s) never turned ready; tripped fuses: %s\n",
			res.GateFailures, strings.Join(res.FuseTripped, ", "))
		if res.Reverted {
			fmt.Printf("guard: auto-rollback reverted %d resource(s)\n", len(res.RolledBack))
		} else if len(res.RolledBack) > 0 {
			fmt.Printf("guard: auto-rollback of %d resource(s) did not complete; run recover\n", len(res.RolledBack))
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("applied %d change(s) in %.0fms (%d retries) — serial %d\n",
		res.Applied, res.ElapsedMs, res.Retries, res.Serial)
	if len(res.Outputs) > 0 {
		keys := make([]string, 0, len(res.Outputs))
		for k := range res.Outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("outputs:")
		for _, k := range keys {
			fmt.Printf("  %s = %v\n", k, res.Outputs[k])
		}
	}
	return nil
}

func printPlan(p server.PlanSummary) {
	for _, ch := range p.Changes {
		marker := map[string]string{
			"create": "+", "update": "~", "replace": "±", "delete": "-",
		}[ch.Action]
		fmt.Printf("  %s %s", marker, ch.Addr)
		if len(ch.ChangedAttrs) > 0 && ch.Action != "create" {
			fmt.Printf(" (%s)", strings.Join(ch.ChangedAttrs, ", "))
		}
		fmt.Println()
	}
	fmt.Printf("plan: %d to add, %d to change, %d to replace, %d to destroy (%d unchanged) (base serial %d)\n",
		p.Creates, p.Updates, p.Replaces, p.Deletes, p.Noops, p.BaseSerial)
}

func cmdDestroy(args []string) error {
	c := newCommon("destroy")
	_ = c.fs.Parse(args)
	c.initTelemetry()
	defer c.writeTrace()
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	st, err := t.run(server.JobRequest{Kind: "destroy"}, false)
	if err != nil {
		return err
	}
	res, err := server.ResultAs[server.ApplySummary](st)
	if err != nil {
		return err
	}
	fmt.Printf("destroyed %d resource(s) — serial %d\n", res.Applied, res.Serial)
	return nil
}

func cmdHistory(args []string) error {
	c := newCommon("history")
	_ = c.fs.Parse(args)
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	commits, err := t.cl.History(t.ctx, t.ws)
	if err != nil {
		return err
	}
	// The time machine's window, oldest serial first.
	for _, ci := range commits {
		desc := ci.Desc
		if desc == "" {
			desc = "(oldest retained)"
		}
		fmt.Printf("  %4d  %-18s %d resource(s)\n", ci.Serial, desc, ci.Resources)
	}
	return nil
}

// cmdRollback plans a rollback to a serial history lists and, unless
// -dry-run, executes it as one job; a serial outside the window is refused
// at submit.
func cmdRollback(args []string) error {
	c := newCommon("rollback")
	to := c.fs.Int("to", 0, "serial to roll back to (see history)")
	dryRun := c.fs.Bool("dry-run", false, "print the rollback plan without executing")
	_ = c.fs.Parse(args)
	if *to <= 0 {
		return fmt.Errorf("rollback requires -to <serial> (see `cloudlessctl history`)")
	}
	c.initTelemetry()
	defer c.writeTrace()
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	st, err := t.run(server.JobRequest{Kind: "rollback", ToSerial: *to, DryRun: *dryRun}, false)
	if err != nil {
		return err
	}
	res, err := server.ResultAs[server.RollbackSummary](st)
	if err != nil {
		return err
	}
	fmt.Printf("rollback to serial %d:\n", res.ToSerial)
	printPlan(res.PlanSummary)
	if !*dryRun && res.Pending() > 0 {
		fmt.Printf("rolled back: %d change(s) — serial %d\n", res.Pending(), res.Serial)
	}
	return nil
}

// cmdRecover reconciles a crashed run's journal with the cloud and commits
// the result to the golden state: completed ops are folded in from their done
// records, and in-doubt ops re-driven under their original idempotency keys.
func cmdRecover(args []string) error {
	c := newCommon("recover")
	_ = c.fs.Parse(args)
	c.initTelemetry()
	defer c.writeTrace()
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	st, err := t.run(server.JobRequest{Kind: "recover"}, false)
	if err != nil {
		return err
	}
	rep, err := server.ResultAs[server.RecoverSummary](st)
	if err != nil {
		return err
	}
	if !rep.Recovered {
		fmt.Println("no stale journal; nothing to recover")
		return nil
	}
	fmt.Printf("recovered %s journal: %d confirmed, %d resumed\n", rep.Kind, rep.Confirmed, rep.Resumed)
	return nil
}

// cmdDrift runs detection as a job, prints the report, and with -reconcile
// reconciles that report by reference.
func cmdDrift(args []string) error {
	c := newCommon("drift")
	scan := c.fs.Bool("scan", false, "full API scan instead of activity-log watch")
	reconcile := c.fs.String("reconcile", "", `reconcile detected drift: "adopt" or "revert" (a revert only reports unmanaged resources, never deletes them)`)
	_ = c.fs.Parse(args)
	c.initTelemetry()
	defer c.writeTrace()
	t, err := c.connect()
	if err != nil {
		return err
	}
	defer t.close()
	kind := "drift"
	if *scan {
		kind = "scan"
	}
	st, err := t.run(server.JobRequest{Kind: kind}, false)
	if err != nil {
		return err
	}
	rep, err := server.ResultAs[server.DriftSummary](st)
	if err != nil {
		return err
	}
	if len(rep.Items) == 0 {
		fmt.Printf("no drift (%s, %d API calls)\n", rep.Method, rep.APICalls)
		return nil
	}
	for _, it := range rep.Items {
		who := it.Actor
		if who == "" {
			who = "unknown actor"
		}
		switch it.Kind {
		case "modified":
			fmt.Printf("  ~ %s: %s changed %v\n", it.Addr, who, it.ChangedAttrs)
		case "deleted":
			fmt.Printf("  - %s: deleted by %s\n", it.Addr, who)
		case "unmanaged":
			fmt.Printf("  + %s %s: unmanaged (created by %s)\n", it.Type, it.ID, who)
		}
	}
	if *reconcile == "" {
		return nil
	}
	if _, err := t.run(server.JobRequest{Kind: "reconcile", DriftJob: st.ID, Action: *reconcile}, false); err != nil {
		return err
	}
	fmt.Printf("reconciled (%s)\n", *reconcile)
	return nil
}

// watchLine renders a live apply event as a one-line progress entry, or ""
// for kinds that would only add noise at the terminal (op_begin, raw
// provider counters).
func watchLine(e cloudless.Event) string {
	switch e.Kind {
	case "apply.run_start":
		return fmt.Sprintf("run %s: %d pending change(s)", e.Run, e.N)
	case "apply.wave_start":
		return fmt.Sprintf("wave %s: %d op(s)", e.Wave, e.N)
	case "apply.op_done":
		line := fmt.Sprintf("  ok    %-7s %s (%.0fms", e.Action, e.Addr, e.Ms)
		if e.Retries > 0 {
			line += fmt.Sprintf(", %d retries", e.Retries)
		}
		return line + ")"
	case "apply.op_fail":
		return fmt.Sprintf("  FAIL  %-7s %s: %s", e.Action, e.Addr, e.Err)
	case "apply.gate_pass":
		return fmt.Sprintf("  ready %s after %.0fms", e.Addr, e.Ms)
	case "apply.gate_fail":
		return fmt.Sprintf("  UNHEALTHY %s: %s", e.Addr, e.Err)
	case "apply.fuse_trip":
		return fmt.Sprintf("fuse tripped: %s — halting the domain", e.Domain)
	case "apply.rollback_start":
		return fmt.Sprintf("auto-rollback: reverting %d resource(s)", e.N)
	case "apply.rollback_finish":
		if e.Err != "" {
			return fmt.Sprintf("auto-rollback incomplete: %s", e.Err)
		}
		return fmt.Sprintf("auto-rollback done: %d resource(s) in %.0fms", e.N, e.Ms)
	case "apply.wave_finish":
		return fmt.Sprintf("wave %s done: %d applied, %d retries, %.0fms", e.Wave, e.N, e.Retries, e.Ms)
	case "apply.run_finish":
		if e.Err != "" {
			return fmt.Sprintf("run %s finished with errors: %s", e.Run, e.Err)
		}
		return fmt.Sprintf("run %s finished: %d applied in %.0fms", e.Run, e.N, e.Ms)
	case "provider.throttled":
		return fmt.Sprintf("  throttled by %s on %s %s (window -> %.0f)", e.Provider, e.Action, e.Type, e.Window)
	}
	return ""
}

// cmdTail follows a cloud endpoint's activity log live: long-poll from a
// watermark, print each batch, resume from the last printed seq. Every
// iteration is a fresh request carrying the watermark, so a dropped
// response never loses or repeats events.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	cloudURL := fs.String("cloud", "", "cloud API base URL to follow (required: the point is watching a shared endpoint)")
	since := fs.Int64("since", 0, "resume after this activity sequence number (0 replays the whole log)")
	wait := fs.Duration("wait", 25*time.Second, "server-side long-poll hold per request")
	once := fs.Bool("once", false, "print the backlog and exit instead of following")
	serverURL := fs.String("server", "", "cloudlessd base URL: tail a hosted workspace's event feed instead of a cloud activity log")
	workspaceName := fs.String("workspace", "", "hosted workspace name (required with -server)")
	token := fs.String("token", "", "bearer token for -server")
	_ = fs.Parse(args)
	if *serverURL != "" {
		return remoteTail(*serverURL, *token, *workspaceName, *since, *wait, *once)
	}
	if *cloudURL == "" {
		return fmt.Errorf("tail requires -cloud: an in-process simulator has no other writers to watch")
	}
	cl := cloud.NewClient(*cloudURL, nil)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	watermark := *since
	for {
		evs, err := cl.WaitActivity(ctx, watermark, *wait)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			return err
		}
		for _, e := range evs {
			line := fmt.Sprintf("#%d %s %-6s %s/%s %s by %s",
				e.Seq, e.Time.Format(time.RFC3339), e.Op, e.Type, e.ID, e.Region, e.Principal)
			if len(e.Changed) > 0 {
				line += " (" + strings.Join(e.Changed, ", ") + ")"
			}
			fmt.Println(line)
			watermark = e.Seq
		}
		if *once {
			return nil
		}
	}
}

// cmdImport ports the cloud's resources to a CCL program in -out and seeds
// <out>/.cloudless with their state, so the next plan of -out is a no-op.
func cmdImport(args []string) error {
	c := newCommon("import")
	out := c.fs.String("out", "imported", "output directory")
	modules := c.fs.Bool("modules", false, "extract repeated structures into modules")
	optimize := c.fs.Bool("optimize", true, "compact homogeneous fleets with count")
	_ = c.fs.Parse(args)
	dataDir := c.dataDirOf(*out)
	if seeded(dataDir) {
		return fmt.Errorf("%s already holds a workspace; import into a fresh -out", dataDir)
	}

	// The one command that talks to the cloud outside a workspace.
	res, err := port.Import(context.Background(), provider.New(c.cloud(), provider.Options{}), port.ImportOptions{
		Optimize: *optimize, ExtractModules: *modules,
	})
	if err != nil {
		return err
	}
	for name, src := range res.Files {
		path := filepath.Join(*out, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	mgr, release, err := c.openLocal(dataDir, workspace.Config{Dir: *out, InitialState: res.State})
	if err != nil {
		return err
	}
	defer release()
	if err := mgr.CloseAll(context.Background()); err != nil {
		return err
	}
	m := res.Metrics
	fmt.Printf("imported %d resource(s): %d lines, %d blocks, compaction %.2fx, references %.0f%%, %d module(s)\n",
		m.ResourceInstances, m.Lines, m.Blocks, m.CompactionRatio, m.ReferenceRatio*100, m.ModuleCount)
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	template := fs.String("template", "web-service", "template: web-service or vpn-mesh")
	name := fs.String("name", "app", "resource name prefix")
	vms := fs.Int("vms", 2, "web tier size")
	db := fs.Bool("db", false, "include a database")
	lb := fs.Bool("lb", false, "include a load balancer")
	out := fs.String("out", "generated", "output directory")
	_ = fs.Parse(args)

	files, err := port.Synthesize(port.SynthSpec{
		Name: *name, Template: *template, VMCount: *vms,
		WithDatabase: *db, WithLoadBalancer: *lb,
	})
	if err != nil {
		return err
	}
	for fname, src := range files {
		path := filepath.Join(*out, fname)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (validated)\n", path)
	}
	return nil
}

// cmdMetrics summarizes a trace file produced with -trace-out: a span table
// (count, total, percentiles) and every counter/gauge/histogram the run
// recorded.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	tracePath := fs.String("trace", "trace.json", "trace file written by a lifecycle command's -trace-out")
	prom := fs.Bool("prom", false, "emit the trace's metrics in Prometheus text exposition format and exit")
	_ = fs.Parse(args)
	tr, err := telemetry.ReadChromeTraceFile(*tracePath)
	if err != nil {
		return err
	}
	if *prom {
		return telemetry.WritePrometheus(os.Stdout, tr.Metrics)
	}
	stats := telemetry.TraceSummary(tr)
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
	}
	fmt.Printf("%-34s %6s %10s %10s %10s %10s\n", "span", "count", "total_ms", "p50_ms", "p95_ms", "max_ms")
	for _, st := range stats {
		fmt.Printf("%-34s %6d %10s %10s %10s %10s\n",
			st.Name, st.Count, ms(st.Total), ms(st.P50), ms(st.P95), ms(st.Max))
	}
	if len(tr.Metrics) > 0 {
		fmt.Println("\nmetrics:")
		for _, mp := range tr.Metrics {
			switch mp.Kind {
			case "histogram":
				fmt.Printf("  %-50s count=%d p50=%.2f p95=%.2f max=%.2f\n",
					mp.Name, mp.Count, mp.P50, mp.P95, mp.Max)
			default:
				fmt.Printf("  %-50s %g\n", mp.Name, mp.Value)
			}
		}
	}
	if tr.DroppedSpans > 0 {
		fmt.Printf("\nwarning: %d span(s) dropped (recorder bound reached)\n", tr.DroppedSpans)
	}
	return nil
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set appends a value.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
