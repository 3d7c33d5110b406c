package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	cloudless "cloudless"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/workspace"
)

// localWorkspace names the project's workspace inside its data directory.
const localWorkspace = "local"

func (c *commonFlags) client() *server.Client {
	return server.NewClient(strings.TrimRight(*c.server, "/"), *c.token, nil)
}

// dataDirOf is -data-dir, defaulting to the .cloudless directory of the
// project in dir.
func (c *commonFlags) dataDirOf(dir string) string {
	if *c.dataDir != "" {
		return *c.dataDir
	}
	return filepath.Join(dir, ".cloudless")
}

// openLocal hosts the project's workspace, configured by cfg, in a manager
// over dataDir with the durable state engine. It holds an exclusive lock on
// dataDir until release is called: the workspace's commit log and journal
// take one writer, so a second cloudlessctl on the same data dir fails at
// once instead of opening them. A workspace with no golden state yet is
// seeded from cfg.InitialState, or else from the state file an earlier
// cloudlessctl kept for the project (adoptStateFile).
func (c *commonFlags) openLocal(dataDir string, cfg workspace.Config) (mgr *workspace.Manager, release func(), err error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dataDir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	if err := lockExclusive(lock); err != nil {
		return nil, nil, fmt.Errorf("%s is in use by another cloudlessctl (%w)", dataDir, err)
	}
	switch has := seeded(dataDir); {
	case has && cfg.InitialState != nil:
		return nil, nil, fmt.Errorf("%s already holds a workspace", dataDir)
	case !has && cfg.InitialState == nil:
		if err := adoptStateFile(dataDir, &cfg); err != nil {
			return nil, nil, err
		}
	}
	mgr = workspace.NewManager(workspace.ManagerOptions{
		Root: dataDir, Cloud: c.cloud(), DefaultBackend: statedb.BackendWAL,
	})
	cfg.Principal = "cloudless"
	if _, err := mgr.Open(localWorkspace, cfg); err != nil {
		return nil, nil, err
	}
	return mgr, func() { lock.Close() }, nil
}

// seeded reports whether the workspace in dataDir has a golden state.
func seeded(dataDir string) bool {
	_, err := os.Stat(filepath.Join(dataDir, localWorkspace, "state.wal"))
	return err == nil
}

// adoptStateFile seeds cfg from the state file an earlier cloudlessctl kept
// for the project in cfg.Dir: <dir>/cloudless.state.json (what import wrote)
// or ./cloudless.state.json (the old -state default). A crashed run's
// journal beside it moves into the workspace, where recover and the next
// plan find it. The file stays where it is and is not read again.
func adoptStateFile(dataDir string, cfg *workspace.Config) error {
	for _, path := range []string{filepath.Join(cfg.Dir, "cloudless.state.json"), "cloudless.state.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if cfg.InitialState, err = state.Decode(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		wsDir := filepath.Join(dataDir, localWorkspace)
		if err := os.MkdirAll(wsDir, 0o755); err != nil {
			return err
		}
		if err := os.Rename(path+".journal", filepath.Join(wsDir, "run.journal")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		fmt.Fprintf(os.Stderr, "cloudlessctl: seeded %s from %s, which is no longer read\n", dataDir, path)
		return nil
	}
	return nil
}

// target is the workspace a stateful verb's jobs run in.
type target struct {
	cl    *server.Client
	ws    string
	ctx   context.Context
	close func()
}

// connect reaches the verb's workspace: the hosted one -server and
// -workspace name, or the project's own (local). Remotely, the first
// SIGINT/SIGTERM stops waiting; the job runs on.
func (c *commonFlags) connect() (*target, error) {
	if *c.server == "" {
		return c.local()
	}
	if *c.workspace == "" {
		return nil, fmt.Errorf("remote mode requires -workspace <name> (see `cloudlessctl workspaces -server %s`)", *c.server)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &target{cl: c.client(), ws: *c.workspace, ctx: ctx, close: cancel}, nil
}

// local serves the project's workspace from -data-dir by a cloudlessd in this
// process. The first SIGINT/SIGTERM cancels the running job — in-flight cloud
// operations drain, the partial result commits and the journal keeps what
// did not finish — and the verb reports that job's end; a second signal
// exits at once (the journal is fsynced before every cloud call, so
// `cloudlessctl recover` reconciles even a hard kill).
func (c *commonFlags) local() (*target, error) {
	policies, err := c.policySource()
	if err != nil {
		return nil, err
	}
	cfg := workspace.Config{Dir: *c.dir, Policies: policies, Telemetry: c.recorder}
	if c.guard != nil && *c.guard {
		cfg.GuardApplies, cfg.GuardCanary = true, *c.guardCanary
	}
	mgr, release, err := c.openLocal(c.dataDirOf(*c.dir), cfg)
	if err != nil {
		return nil, err
	}
	queue := jobs.New(jobs.Options{Workers: 1})
	srv := server.New(server.Options{Manager: mgr, Queue: queue})
	cl := server.NewClient("http://cloudlessd", "", &http.Client{Transport: handlerTransport{srv.Handler()}}).
		WithRetries(0, 0)

	sigs := make(chan os.Signal, 2) // the two signals acted on
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var interrupted sync.WaitGroup
	interrupted.Add(1)
	go func() {
		defer interrupted.Done()
		if _, ok := <-sigs; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "cloudlessctl: interrupt — draining in-flight operations (interrupt again to kill)")
		go func() {
			if _, ok := <-sigs; ok {
				fmt.Fprintln(os.Stderr, "cloudlessctl: killed; run `cloudlessctl recover` to reconcile")
				os.Exit(130)
			}
		}()
		// No grace: the queue cancels the running job at once, and returns
		// the expired context's error once the job has ended. The workspace
		// stays open until the verb has read how the job ended.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		_ = queue.Shutdown(expired)
	}()
	return &target{cl: cl, ws: localWorkspace, ctx: context.Background(), close: func() {
		signal.Stop(sigs)
		close(sigs)
		interrupted.Wait()
		if err := srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "cloudlessctl: close workspace: %s\n", err)
		}
		release()
	}}, nil
}

// handlerTransport serves each request from an in-process handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// run submits a job and waits for it to end, surfacing a job that did not
// succeed as an error; the status carries its result either way. With watch
// it streams the workspace's event feed to stderr meanwhile, from the
// watermark taken before the submit.
func (t *target) run(req server.JobRequest, watch bool) (server.JobStatus, error) {
	var watermark int64
	if watch {
		if page, err := t.cl.Events(t.ctx, t.ws, 0, 0); err == nil {
			watermark = page.Next
		}
	}
	show := func(wait time.Duration) error {
		page, err := t.cl.Events(t.ctx, t.ws, watermark, wait)
		if err != nil {
			return err
		}
		watermark = page.Next
		for _, we := range page.Events {
			if line := watchLine(cloudless.Event(we)); line != "" {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		return nil
	}
	st, err := t.cl.SubmitJob(t.ctx, t.ws, req)
	for err == nil && !st.Status.Terminal() {
		wait := 10_000
		if watch {
			if err = show(2 * time.Second); err != nil {
				break
			}
			wait = 0
		}
		st, err = t.cl.GetJob(t.ctx, t.ws, st.ID, wait)
	}
	if err != nil {
		return st, err
	}
	if watch {
		// What the job published as it ended; the job's outcome, not the
		// feed, decides what run reports.
		_ = show(0)
	}
	if st.Status != jobs.StatusSucceeded {
		return st, fmt.Errorf("%s job %s %s: %s", req.Kind, st.ID, st.Status, st.Err)
	}
	return st, nil
}

// remoteTail follows a workspace's event feed (the server-side analogue of
// `tail` against a raw cloud endpoint), printing every event.
func remoteTail(serverURL, token, ws string, since int64, wait time.Duration, once bool) error {
	if ws == "" {
		return fmt.Errorf("tail -server requires -workspace <name>")
	}
	cl := server.NewClient(strings.TrimRight(serverURL, "/"), token, nil)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	return follow(ctx, cl, ws, since, wait, once, func(e cloudless.Event) string {
		if line := watchLine(e); line != "" {
			return line
		}
		return fmt.Sprintf("#%d %s %s %s", e.Seq, time.Unix(0, e.Time).Format(time.RFC3339), e.Kind, e.Addr)
	})
}

// follow long-polls a workspace's event feed from a watermark and prints
// each event line renders ("" skips it), resuming from each page's Next,
// until ctx ends — or after one page with once.
func follow(ctx context.Context, cl *server.Client, ws string, watermark int64, wait time.Duration, once bool,
	line func(cloudless.Event) string) error {
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
			if l := line(cloudless.Event(we)); l != "" {
				fmt.Println(l)
			}
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
	if *c.server == "" {
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
		policySrc, err := c.policySource()
		if err != nil {
			return err
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
