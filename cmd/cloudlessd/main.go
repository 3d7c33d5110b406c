// Command cloudlessd hosts many cloudless workspaces in one long-running
// process behind an authenticated HTTP/JSON API (DESIGN.md S27): workspace
// CRUD, async plan/apply/drift/recover jobs with per-tenant fair
// scheduling, long-poll event streams, and an aggregated /metrics.
//
// Usage:
//
//	cloudlessd [-addr :8445] [-data-dir /var/lib/cloudless] \
//	    [-cloud sim|http://host:8444] [-tokens alice=tok1,bob=tok2] \
//	    [-admins alice] [-workers 8] [-state-backend wal] [-guard]
//
// With -cloud sim (the default) an in-process simulated cloud backs every
// workspace — one control plane, per-workspace provider runtimes — which
// is the single-binary path for development and the server-smoke CI job.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/workspace"
)

func main() {
	addr := flag.String("addr", ":8445", "listen address")
	dataDir := flag.String("data-dir", "", "root directory for per-workspace journals and durable state (empty = ephemeral)")
	cloudURL := flag.String("cloud", "sim", `cloud control plane: "sim" for an in-process simulator, or an HTTP base URL`)
	timeScale := flag.Float64("time-scale", 0.001, "sim latency multiplier (ignored with a remote cloud)")
	seed := flag.Int64("seed", 1, "sim fault-injection seed")
	tokens := flag.String("tokens", "", "comma-separated principal=token pairs; empty disables auth (dev only)")
	admins := flag.String("admins", "", "comma-separated principals with access to every workspace")
	workers := flag.Int("workers", 8, "job worker ceiling (AIMD admission adapts below it)")
	backend := flag.String("state-backend", "", "default golden-state backend per workspace (memory|wal; mvcc = alias of memory)")
	guard := flag.Bool("guard", false, "default new workspaces to health-gated applies")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight jobs and workspace drains")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var upstream cloud.Interface
	if *cloudURL == "sim" {
		opts := cloud.DefaultOptions()
		opts.TimeScale = *timeScale
		opts.Seed = *seed
		upstream = cloud.NewSim(opts)
	} else {
		upstream = cloud.NewClient(*cloudURL, nil)
	}

	mgr := workspace.NewManager(workspace.ManagerOptions{
		Root:           *dataDir,
		Cloud:          upstream,
		DefaultBackend: *backend,
		Defaults:       workspace.Config{GuardApplies: *guard},
	})
	// With a data dir the daemon is crash-safe (DESIGN.md S28): jobs journal
	// every transition to <data-dir>/<workspace>/jobs.journal and ACLs
	// persist alongside, so a restart resumes instead of starting blank.
	queueOpts := jobs.Options{Workers: *workers}
	aclPath := ""
	if *dataDir != "" {
		store, err := jobs.OpenStore(*dataDir, jobs.StoreOptions{})
		if err != nil {
			logger.Error("open job store", "err", err)
			os.Exit(1)
		}
		queueOpts.Store = store
		aclPath = filepath.Join(*dataDir, "acl.json")
	}
	queue := jobs.New(queueOpts)
	srv := server.New(server.Options{
		Manager: mgr,
		Queue:   queue,
		Tokens:  parsePairs(*tokens),
		Admins:  splitList(*admins),
		Logger:  logger,
		ACLPath: aclPath,
	})

	// Startup recovery, before the listener admits traffic: reopen every
	// persisted workspace (durable state reloads with it), then replay the
	// job journals — terminal jobs become history, queued jobs re-enqueue,
	// and jobs that were mid-apply at a crash resume through apply-level
	// recovery under their original idempotency keys.
	startupCtx, cancelStartup := context.WithTimeout(context.Background(), 5*time.Minute)
	wsRep, err := mgr.Recover(startupCtx)
	if err != nil {
		logger.Error("workspace recovery failed", "err", err)
		os.Exit(1)
	}
	for name, ferr := range wsRep.Failed {
		logger.Error("workspace not recovered", "workspace", name, "err", ferr)
	}
	jobRep, err := srv.RecoverJobs(startupCtx)
	if err != nil {
		cancelStartup()
		logger.Error("job recovery failed", "err", err)
		os.Exit(1)
	}
	recRep, err := srv.RecoverReconcilers(startupCtx)
	cancelStartup()
	if err != nil {
		logger.Error("reconciler recovery failed", "err", err)
		os.Exit(1)
	}
	if recRep.Resumed > 0 || recRep.Orphaned > 0 {
		logger.Info("reconcilers resumed", "resumed", recRep.Resumed, "orphaned", recRep.Orphaned)
	}
	if len(wsRep.Reopened) > 0 || jobRep.Restored > 0 {
		logger.Info("recovered after restart",
			"workspaces", len(wsRep.Reopened), "stale_journals", len(wsRep.Journals),
			"jobs", jobRep.Restored, "requeued", jobRep.Requeued,
			"resumed", jobRep.Resumed, "orphaned", jobRep.Orphaned)
	}

	// Graceful shutdown: first signal drains (HTTP, then jobs, then
	// workspace closes) under the drain budget; a second signal hard-kills.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logger.Info("shutting down", "drain_timeout", *drainTimeout)
		go func() {
			<-sigs
			logger.Error("second signal: exiting immediately")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown incomplete", "err", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	logger.Info("cloudlessd listening", "addr", *addr, "cloud", *cloudURL,
		"workers", *workers, "auth", *tokens != "")
	if err := srv.ListenAndServe(*addr); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// parsePairs parses "principal=token,principal=token" into token->principal.
func parsePairs(s string) map[string]string {
	out := map[string]string{}
	for _, pair := range splitList(s) {
		p, tok, ok := strings.Cut(pair, "=")
		if ok && p != "" && tok != "" {
			out[tok] = p
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
