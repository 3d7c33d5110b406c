package main

// Remote mode: with -server, lifecycle commands route through a cloudlessd
// workspace API instead of opening a local stack. The server owns the golden
// state, journal, and event history; the CLI submits jobs and renders their
// wire summaries, so `plan`/`apply -watch`/`drift`/`history`/`rollback`/
// `recover` read the same on-screen as their local counterparts.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	cloudless "cloudless"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
)

// remote reports whether this invocation targets a cloudlessd server.
func (c *commonFlags) remote() bool { return *c.server != "" }

func (c *commonFlags) client() *server.Client {
	return server.NewClient(strings.TrimRight(*c.server, "/"), *c.token, nil)
}

// remoteTarget validates the -server/-workspace pair and returns the client
// plus a signal-canceled context.
func (c *commonFlags) remoteTarget() (*server.Client, string, context.Context, context.CancelFunc, error) {
	if *c.workspace == "" {
		return nil, "", nil, nil, fmt.Errorf("remote mode requires -workspace <name> (see `cloudlessctl workspaces -server %s`)", *c.server)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return c.client(), *c.workspace, ctx, cancel, nil
}

// runJob submits a job and waits for it to finish, surfacing job-level
// failures as errors.
func runJob(ctx context.Context, cl *server.Client, ws string, req server.JobRequest) (server.JobStatus, error) {
	st, err := cl.SubmitJob(ctx, ws, req)
	if err != nil {
		return st, err
	}
	st, err = cl.WaitJob(ctx, ws, st.ID)
	if err != nil {
		return st, err
	}
	if st.Status != jobs.StatusSucceeded {
		return st, fmt.Errorf("%s job %s %s: %s", req.Kind, st.ID, st.Status, st.Err)
	}
	return st, nil
}

// printRemotePlan renders a plan artifact like printPlan renders a local one.
func printRemotePlan(p server.PlanSummary) {
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
	fmt.Printf("plan: %d to create, %d to update, %d to replace, %d to delete, %d unchanged (base serial %d)\n",
		p.Creates, p.Updates, p.Replaces, p.Deletes, p.Noops, p.BaseSerial)
}

// remotePlanApply is the -server path of `plan` and `apply`: plan as a job,
// print the diff artifact, then (for apply) apply that exact artifact by
// reference while streaming the workspace event feed when -watch is on.
func (c *commonFlags) remotePlanApply(doApply, watch bool, concurrency int) error {
	cl, ws, ctx, cancel, err := c.remoteTarget()
	if err != nil {
		return err
	}
	defer cancel()

	planSt, err := runJob(ctx, cl, ws, server.JobRequest{Kind: "plan"})
	if err != nil {
		return err
	}
	p, err := cl.PlanArtifact(ctx, ws, planSt.ID)
	if err != nil {
		return err
	}
	printRemotePlan(p)
	if !doApply {
		return nil
	}
	if p.Pending() == 0 {
		fmt.Println("nothing to do")
		return nil
	}

	// Capture the event watermark before submitting so -watch replays
	// exactly this run's events, then follow the feed until the job lands.
	var watermark int64
	if watch {
		if page, err := cl.Events(ctx, ws, 0, 0); err == nil {
			watermark = page.Next
		}
	}
	st, err := cl.SubmitJob(ctx, ws, server.JobRequest{
		Kind: "apply", PlanJob: planSt.ID, Concurrency: concurrency,
	})
	if err != nil {
		return err
	}
	for {
		if watch {
			page, err := cl.Events(ctx, ws, watermark, 2*time.Second)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				return err
			}
			watermark = page.Next
			for _, we := range page.Events {
				if line := watchLine(cloudless.Event(we)); line != "" {
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}
		wait := 0
		if !watch {
			wait = 10_000
		}
		cur, err := cl.GetJob(ctx, ws, st.ID, wait)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		st = cur
		if st.Status.Terminal() {
			break
		}
	}
	if st.Status != jobs.StatusSucceeded {
		return fmt.Errorf("apply job %s %s: %s", st.ID, st.Status, st.Err)
	}
	res, err := server.ResultAs[server.ApplySummary](st)
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

// remoteDrift is the -server path of `drift`: run detection as a job, print
// the report, and optionally reconcile it by artifact reference.
func (c *commonFlags) remoteDrift(scan bool, reconcile string) error {
	cl, ws, ctx, cancel, err := c.remoteTarget()
	if err != nil {
		return err
	}
	defer cancel()
	kind := "drift"
	if scan {
		kind = "scan"
	}
	st, err := runJob(ctx, cl, ws, server.JobRequest{Kind: kind})
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
	if reconcile == "" {
		return nil
	}
	if _, err := runJob(ctx, cl, ws, server.JobRequest{
		Kind: "reconcile", DriftJob: st.ID, Action: reconcile,
	}); err != nil {
		return err
	}
	fmt.Printf("reconciled (%s)\n", reconcile)
	return nil
}

// remoteHistory is the -server path of `history`.
func (c *commonFlags) remoteHistory() error {
	cl, ws, ctx, cancel, err := c.remoteTarget()
	if err != nil {
		return err
	}
	defer cancel()
	commits, err := cl.History(ctx, ws)
	if err != nil {
		return err
	}
	printHistory(commits)
	return nil
}

// remoteRollback is the -server path of `rollback`: one job plans and, unless
// dry, executes; a serial outside the workspace's window is refused at submit.
func (c *commonFlags) remoteRollback(to int, dryRun bool) error {
	cl, ws, ctx, cancel, err := c.remoteTarget()
	if err != nil {
		return err
	}
	defer cancel()
	st, err := runJob(ctx, cl, ws, server.JobRequest{Kind: "rollback", ToSerial: to, DryRun: dryRun})
	if err != nil {
		return err
	}
	res, err := server.ResultAs[server.RollbackSummary](st)
	if err != nil {
		return err
	}
	fmt.Printf("rollback to serial %d: %d steps: %d in-place reverts, %d redeployments\n",
		res.ToSerial, len(res.Steps), res.Reverts, res.Redeployments)
	for _, step := range res.Steps {
		fmt.Printf("  %-16s %-40s %s\n", step.Kind, step.Addr, step.Reason)
	}
	if !dryRun && len(res.Steps) > 0 {
		fmt.Printf("rolled back: %d in-place revert(s), %d redeployment(s) — serial %d\n",
			res.Reverts, res.Redeployments, res.Serial)
	}
	return nil
}

// remoteRecover is the -server path of `recover`.
func (c *commonFlags) remoteRecover() error {
	cl, ws, ctx, cancel, err := c.remoteTarget()
	if err != nil {
		return err
	}
	defer cancel()
	st, err := runJob(ctx, cl, ws, server.JobRequest{Kind: "recover"})
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
	fmt.Printf("recovered %s journal: %d confirmed, %d resumed, %d orphan(s) adopted, %d orphan(s) deleted\n",
		rep.Kind, rep.Confirmed, rep.Resumed, len(rep.OrphansAdopted), len(rep.OrphansDeleted))
	return nil
}

// remoteTail follows a workspace's event feed (the server-side analogue of
// `tail` against a raw cloud endpoint): long-poll from a watermark, print,
// resume from the page's Next.
func remoteTail(serverURL, token, ws string, since int64, wait time.Duration, once bool) error {
	if ws == "" {
		return fmt.Errorf("tail -server requires -workspace <name>")
	}
	cl := server.NewClient(strings.TrimRight(serverURL, "/"), token, nil)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	watermark := since
	for {
		page, err := cl.Events(ctx, ws, watermark, wait)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			return err
		}
		if g := page.Gap; g != nil {
			// The server could not resume our watermark gaplessly (daemon
			// restart reset the sequence, or the replay ring overflowed).
			// Say so and re-anchor instead of silently renumbering.
			fmt.Printf("-- event stream gap (%s): events after #%d were lost; resuming from #%d --\n",
				g.Reason, g.Since, page.Next)
		}
		watermark = page.Next
		for _, we := range page.Events {
			e := cloudless.Event(we)
			if line := watchLine(e); line != "" {
				fmt.Println(line)
				continue
			}
			fmt.Printf("#%d %s %s %s\n", e.Seq,
				time.Unix(0, e.Time).Format(time.RFC3339), e.Kind, e.Addr)
		}
		if once {
			return nil
		}
	}
}

// cmdWorkspaces manages workspaces on a cloudlessd server:
//
//	cloudlessctl workspaces -server URL                      # list
//	cloudlessctl workspaces create -server URL -workspace w -dir ./infra
//	cloudlessctl workspaces delete -server URL -workspace w
func cmdWorkspaces(args []string) error {
	sub := "list"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	c := newCommon("workspaces")
	dir := c.dir // uploaded on create
	backend := c.fs.String("remote-state-backend", "", "golden-state backend for the new workspace (empty = server default)")
	guard := c.fs.Bool("guard", false, "health-gate applies in the new workspace")
	canary := c.fs.Float64("canary", 0, "with -guard: canary fraction for the new workspace")
	_ = c.fs.Parse(args)
	if !c.remote() {
		return fmt.Errorf("workspaces requires -server <url>")
	}
	cl := c.client()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	switch sub {
	case "list":
		names, err := cl.ListWorkspaces(ctx)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			fmt.Println("no workspaces")
			return nil
		}
		fmt.Printf("%-24s %6s %10s\n", "workspace", "serial", "resources")
		for _, name := range names {
			info, err := cl.GetWorkspace(ctx, name)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s %6d %10d\n", info.Name, info.Serial, info.Resources)
		}
		return nil
	case "create":
		if *c.workspace == "" {
			return fmt.Errorf("workspaces create requires -workspace <name>")
		}
		sources, err := loadSources(*dir)
		if err != nil {
			return err
		}
		policySrc := ""
		if *c.policies != "" {
			data, err := os.ReadFile(*c.policies)
			if err != nil {
				return fmt.Errorf("read policies: %w", err)
			}
			policySrc = string(data)
		}
		info, err := cl.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
			Name: *c.workspace, Sources: sources, Policies: policySrc,
			StateBackend: *backend, GuardApplies: *guard, GuardCanary: *canary,
		})
		if err != nil {
			return err
		}
		fmt.Printf("created workspace %s (%d source file(s))\n", info.Name, len(sources))
		return nil
	case "delete":
		if *c.workspace == "" {
			return fmt.Errorf("workspaces delete requires -workspace <name>")
		}
		if err := cl.DeleteWorkspace(ctx, *c.workspace); err != nil {
			return err
		}
		fmt.Printf("deleted workspace %s\n", *c.workspace)
		return nil
	default:
		return fmt.Errorf("unknown workspaces subcommand %q (want list, create, or delete)", sub)
	}
}

// loadSources reads every .ccl file under dir into a filename->source map,
// keyed by slash-separated path relative to dir (module layouts survive the
// upload).
func loadSources(dir string) (map[string]string, error) {
	sources := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ccl") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sources[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no .ccl files under %s", dir)
	}
	return sources, nil
}
