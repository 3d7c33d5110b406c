package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cloudless/internal/jobs"
	"cloudless/internal/server"
)

// jobKinds is the round every tenant is walked through, in order; a round
// starts and ends with the tenant's estate empty.
var jobKinds = []string{"apply", "plan", "scan", "drift", "destroy"}

// daemonWorkers is the worker ceiling cloudlessd runs with.
const daemonWorkers = 2

// daemonRestarts is how often the daemon is SIGKILLed and restarted on the
// same data dir once the window has closed.
const daemonRestarts = 3

// daemon is the real cloudlessd binary as a child process.
type daemon struct {
	bin, dataDir, addr, logPath string
	proc                        *exec.Cmd
	client                      *server.Client
}

// buildDaemon compiles cmd/cloudlessd into dir.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "cloudlessd")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, "cloudless/cmd/cloudlessd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cloudlessd: %w\n%s", err, out)
	}
	return bin, nil
}

func newDaemon(bin, dir string) (*daemon, error) {
	// Reserve a loopback port; the daemon binds it a moment later and keeps
	// it across restarts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	return &daemon{
		bin: bin, dataDir: filepath.Join(dir, "data"), addr: addr,
		logPath: filepath.Join(dir, "daemon.log"),
		client:  server.NewClient("http://"+addr, "", nil),
	}, nil
}

// start spawns the daemon against the cloud at cloudURL and returns once
// /healthz answers, which it does only after start-up recovery.
func (d *daemon) start(ctx context.Context, cloudURL string) (time.Duration, error) {
	logFile, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin,
		"-addr", d.addr, "-cloud", cloudURL, "-data-dir", d.dataDir,
		"-state-backend", "wal", "-workers", strconv.Itoa(daemonWorkers))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start cloudlessd: %w", err)
	}
	d.proc = cmd
	probe := server.NewClient("http://"+d.addr, "", nil).WithRetries(0, 0)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := probe.Healthz(ctx); err == nil {
			return time.Since(start), nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.kill()
			tail, _ := os.ReadFile(d.logPath) // best effort: the log only decorates the error
			if len(tail) > 2048 {
				tail = tail[len(tail)-2048:]
			}
			return 0, fmt.Errorf("cloudlessd never became healthy; log tail:\n%s", tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon, waits for it, and returns what it used.
func (d *daemon) kill() *os.ProcessState {
	if d.proc == nil {
		return nil
	}
	_ = d.proc.Process.Kill() // already exited is fine: Wait reports either way
	_ = d.proc.Wait()
	st := d.proc.ProcessState
	d.proc = nil
	return st
}

// daemonEnv is one daemon_mixed set-up: cloud, daemon, and its tenants.
type daemonEnv struct {
	host    *cloudHost
	d       *daemon
	dir     string
	tenants []string
	startMs float64
}

func (e *daemonEnv) close() {
	if e.d != nil {
		e.d.kill()
	}
	e.host.close()
	_ = os.RemoveAll(e.dir)
}

func newDaemonEnv(ctx context.Context, cfg runConfig) (*daemonEnv, error) {
	dir, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{host: newCloudHost(cfg.traced), dir: dir}
	fail := func(err error) (*daemonEnv, error) {
		e.close()
		return nil, err
	}
	bin, err := buildDaemon(ctx, dir)
	if err != nil {
		return fail(err)
	}
	if e.d, err = newDaemon(bin, dir); err != nil {
		return fail(err)
	}
	took, err := e.d.start(ctx, e.host.url(false))
	if err != nil {
		return fail(err)
	}
	e.startMs = ms(took)
	for i := 0; i < cfg.sizes.tenants; i++ {
		name := tenantName(cfg.seed, i)
		if _, err := e.d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
			Name: name, Sources: tenantSources(name, cfg.sizes.tenantVMs),
		}); err != nil {
			return fail(fmt.Errorf("create workspace %s: %w", name, err))
		}
		e.tenants = append(e.tenants, name)
	}
	// One untimed round per tenant: connections, replan caches and WALs warm.
	if err := e.warm(ctx, cfg); err != nil {
		return fail(err)
	}
	return e, nil
}

func (e *daemonEnv) warm(ctx context.Context, cfg runConfig) error {
	for _, tenant := range e.tenants {
		for _, kind := range jobKinds {
			if _, err := runJob(ctx, e.d.client, cfg, tenant, kind, false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// jobRecord is one job as its client saw it; ack is set in the traced pass
// only.
type jobRecord struct {
	tenant, kind     string
	submit, ack, end time.Time
	view             jobs.View
}

func (j jobRecord) latency() time.Duration { return j.end.Sub(j.submit) }

// runJob submits one job, waits for it, and checks its outcome.
func runJob(ctx context.Context, c *server.Client, cfg runConfig, tenant, kind string, traced bool) (jobRecord, error) {
	rec := jobRecord{tenant: tenant, kind: kind, submit: time.Now()}
	st, err := c.SubmitJob(ctx, tenant, server.JobRequest{Kind: kind})
	if err != nil {
		return rec, fmt.Errorf("%s %s: submit: %w", tenant, kind, err)
	}
	if traced {
		rec.ack = time.Now()
	}
	rec.view = st.View
	st, err = c.WaitJob(ctx, tenant, st.ID)
	rec.end = time.Now()
	if err != nil {
		return rec, fmt.Errorf("%s %s %s: wait: %w", tenant, kind, rec.view.ID, err)
	}
	rec.view = st.View
	if st.Status != jobs.StatusSucceeded {
		return rec, fmt.Errorf("%s %s %s: %s (%s)", tenant, kind, st.ID, st.Status, st.Err)
	}
	want := tenantResources(cfg.sizes.tenantVMs)
	switch kind {
	case "apply", "destroy":
		sum, err := server.ResultAs[server.ApplySummary](st)
		if err != nil {
			return rec, err
		}
		if sum.Applied != want || sum.Failed != 0 {
			return rec, fmt.Errorf("%s %s %s: applied %d, failed %d, want %d and 0", tenant, kind, st.ID, sum.Applied, sum.Failed, want)
		}
	case "plan":
		sum, err := server.ResultAs[server.PlanSummary](st)
		if err != nil {
			return rec, err
		}
		if sum.Pending() != 0 || sum.Noops != want {
			return rec, fmt.Errorf("%s plan %s after apply: %d pending, %d unchanged", tenant, st.ID, sum.Pending(), sum.Noops)
		}
	case "scan", "drift":
		sum, err := server.ResultAs[server.DriftSummary](st)
		if err != nil {
			return rec, err
		}
		// The tenants share one cloud, so a report lists the neighbours'
		// resources as unmanaged; the tenant's own must be untouched.
		for _, it := range sum.Items {
			if it.Kind != "unmanaged" {
				return rec, fmt.Errorf("%s %s %s: %s reported %s on an untouched estate", tenant, kind, st.ID, it.Addr, it.Kind)
			}
		}
	}
	return rec, nil
}

// drive runs the closed loop: each client walks its own tenants, in seeded
// order, through whole rounds until the deadline passes. A round is never
// cut short, so every estate is empty again when drive returns.
func (e *daemonEnv) drive(ctx context.Context, cfg runConfig, r *run, d time.Duration, traced bool) []jobRecord {
	var mu sync.Mutex
	var all []jobRecord
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.sizes.clients; c++ {
		var mine []string
		for i := c; i < len(e.tenants); i += cfg.sizes.clients {
			mine = append(mine, e.tenants[i])
		}
		rng := rand.New(rand.NewSource(cfg.seed<<8 | int64(c)))
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []jobRecord
			var errs []error
			for i := 0; time.Since(start) < d; i++ {
				for _, kind := range jobKinds {
					rec, err := runJob(ctx, e.d.client, cfg, mine[i%len(mine)], kind, traced)
					recs, errs = append(recs, rec), append(errs, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i, rec := range recs {
				r.done(errs[i])
				if errs[i] == nil {
					all = append(all, rec)
				}
			}
		}()
	}
	wg.Wait()
	return all
}

// restart SIGKILLs the daemon, starts it on the same data dir against
// cloudURL, and checks that no acknowledged job went missing: the queue
// keeps the last 256 finished jobs of a tenant, so those must be listed.
func (e *daemonEnv) restart(ctx context.Context, cloudURL string, acked map[string][]string) (float64, error) {
	e.d.kill()
	took, err := e.d.start(ctx, cloudURL)
	if err != nil {
		return 0, err
	}
	const retained = 256
	for tenant, ids := range acked {
		views, err := e.d.client.ListJobs(ctx, tenant)
		if err != nil {
			return 0, fmt.Errorf("list jobs of %s after restart: %w", tenant, err)
		}
		listed := make(map[string]bool, len(views))
		for _, v := range views {
			listed[v.ID] = v.Status == jobs.StatusSucceeded
		}
		if len(ids) > retained {
			ids = ids[len(ids)-retained:]
		}
		for _, id := range ids {
			if !listed[id] {
				return 0, fmt.Errorf("acknowledged job %s of %s is missing or not succeeded after restart", id, tenant)
			}
		}
	}
	return ms(took), nil
}

// procUsage is what /proc reports for the daemon at one instant.
type procUsage struct {
	cpuMs      float64
	writeBytes float64
	syscw      float64
}

// readProc reads /proc/<pid>/{stat,io}; a field it cannot read stays 0.
func readProc(pid int) procUsage {
	var u procUsage
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th overall, in clock ticks (100 Hz on Linux).
		if i := strings.LastIndexByte(string(raw), ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				u.cpuMs = (ut + st) * 10
			}
		}
	}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			k, v, _ := strings.Cut(line, ": ")
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			switch k {
			case "write_bytes":
				u.writeBytes = n
			case "syscw":
				u.syscw = n
			}
		}
	}
	return u
}

// runDaemonMixed drives the real cloudlessd with small multi-tenant jobs, so
// per-request fixed costs dominate: HTTP, queue, journal fsync before the
// ack, per-workspace WAL commit, long-poll wake-up.
func runDaemonMixed(ctx context.Context, cfg runConfig, r *run) error {
	env, setupS, err := timedSetup(cfg.setupRepeats(), func() (*daemonEnv, error) {
		return newDaemonEnv(ctx, cfg)
	}, (*daemonEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setupS)
	r.set("daemon.start_ms", env.startMs)

	acked := map[string][]string{}
	note := func(recs []jobRecord, into *samples) {
		for _, rec := range recs {
			into.add(rec.latency())
			acked[rec.tenant] = append(acked[rec.tenant], rec.view.ID)
		}
		if n := env.host.sim.TotalResources(); n != 0 {
			r.fail(fmt.Errorf("sim holds %d resources after the last destroy", n))
		}
	}

	var ref refPass
	var traced samples
	var tracedRecs []jobRecord
	var restartMs, servedMs samples
	var usage procUsage
	var calls int64
	simBefore := env.host.sim.Metrics()
	bound := false // which cloud endpoint the daemon dials
	err = cfg.measure(&ref, func(toTraced bool) error {
		bound = toTraced
		// Every pass of a trace run starts from a restarted, re-warmed
		// daemon, dialling the plain or the recording endpoint: reference
		// and traced passes differ in the decorators alone, and each
		// SIGKILL-and-restart is a restart sample.
		t, err := env.restart(ctx, env.host.url(toTraced), acked)
		if err != nil {
			return err
		}
		restartMs = append(restartMs, t)
		return env.warm(ctx, cfg)
	}, func(isTraced bool, d time.Duration) {
		if !isTraced {
			note(env.drive(ctx, cfg, r, d, false), &ref.lat)
			return
		}
		env.host.served.take()
		before, calls0 := readProc(env.d.proc.Process.Pid), env.host.sim.Metrics().Calls
		recs := env.drive(ctx, cfg, r, d, true)
		after := readProc(env.d.proc.Process.Pid)
		calls += env.host.sim.Metrics().Calls - calls0
		servedMs = append(servedMs, durationsUs(env.host.served.take())...)
		note(recs, &traced)
		tracedRecs = append(tracedRecs, recs...)
		usage.cpuMs += after.cpuMs - before.cpuMs
		usage.writeBytes += after.writeBytes - before.writeBytes
		usage.syscw += after.syscw - before.syscw
	})
	if err != nil {
		return err
	}
	if len(ref.lat) == 0 {
		return fmt.Errorf("no job completed")
	}
	r.latency(ref)

	if cfg.traced {
		if len(traced) == 0 {
			return fmt.Errorf("no traced job completed")
		}
		n := float64(len(tracedRecs))
		var served float64
		for _, us := range servedMs {
			served += us / 1000
		}
		r.set("cloud.server_ms_per_job", served/n)
		r.set("cloud.calls_per_job", float64(calls)/n)
		r.set("cloud.batch_items_per_call", batchItemsPerCall(simBefore, env.host.sim.Metrics()))
		r.set("daemon.cpu_ms_per_job", usage.cpuMs/n)
		r.set("daemon.write_bytes_per_job", usage.writeBytes/n)
		r.set("daemon.syscw_per_job", usage.syscw/n)
		r.set("trace_overhead_frac", median(traced)/median(ref.lat)-1)
		jobLayers(r, tracedRecs)
		if err := measureServerGet(ctx, r, env); err != nil {
			return err
		}
		if err := measureJournalBytes(ctx, r, cfg, env, tracedRecs); err != nil {
			return err
		}
	}

	if st := env.d.kill(); st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.set("peak_rss_mb", float64(ru.Maxrss)/1024)
		}
	}
	for len(restartMs) < daemonRestarts {
		t, err := env.restart(ctx, env.host.url(bound), acked)
		if err != nil {
			r.fail(err)
			return nil
		}
		restartMs = append(restartMs, t)
	}
	r.set("daemon.restart_ms", median(restartMs))
	return nil
}

// jobLayers splits each traced job into the layers it crossed, using the
// client's own clock for the HTTP legs and jobs.View's timestamps for the
// queue and the run.
func jobLayers(r *run, recs []jobRecord) {
	var submit, wait, notify, covered samples
	run := map[string]samples{}
	total := map[string]samples{}
	for _, j := range recs {
		submit.add(j.ack.Sub(j.submit))
		wait.add(j.view.Started.Sub(j.view.Submitted))
		notify.add(j.end.Sub(j.view.Finished))
		run[j.kind] = append(run[j.kind], ms(j.view.Finished.Sub(j.view.Started)))
		total[j.kind] = append(total[j.kind], ms(j.latency()))
		// Submit covers the request up to the ack; the queue and run spans
		// are the daemon's own; notify is the way back. The ack races the
		// queue (a job may start before its 202 is read), so the rows can
		// add up to slightly more than the job.
		parts := j.ack.Sub(j.submit) + j.view.Finished.Sub(j.view.Submitted) + j.end.Sub(j.view.Finished)
		covered = append(covered, float64(parts)/float64(j.latency()))
	}
	r.set("server.submit_ms_p50", median(submit))
	r.set("server.notify_ms_p50", median(notify))
	r.set("jobs.queue_wait_ms_p50", median(wait))
	r.set("jobs.queue_wait_ms_p99", quantile(wait, 0.99))
	for _, kind := range jobKinds {
		r.set("jobs.run_ms_p50."+kind, median(run[kind]))
		r.set("job_ms_p50."+kind, median(total[kind]))
	}
	r.set("unattributed_frac", 1-median(covered))
}

// measureServerGet times a request that involves no job at all.
func measureServerGet(ctx context.Context, r *run, e *daemonEnv) error {
	const gets = 200
	var s samples
	for i := 0; i < gets; i++ {
		t0 := time.Now()
		if _, err := e.d.client.GetWorkspace(ctx, e.tenants[i%len(e.tenants)]); err != nil {
			return fmt.Errorf("get workspace: %w", err)
		}
		s.add(time.Since(t0))
	}
	r.set("server.get_ms_p50", median(s))
	return nil
}

// measureJournalBytes appends one round's records (queued, running,
// terminal with its real result, per kind) to a jobs.Store of its own and
// reports the journal bytes a job costs.
func measureJournalBytes(ctx context.Context, r *run, cfg runConfig, e *daemonEnv, recs []jobRecord) error {
	dir, err := os.MkdirTemp(cfg.dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.OpenStore(dir, jobs.StoreOptions{NoSync: true})
	if err != nil {
		return err
	}
	defer store.Close()
	seen := map[string]bool{}
	for i := len(recs) - 1; i >= 0 && len(seen) < len(jobKinds); i-- {
		j := recs[i]
		if seen[j.kind] {
			continue
		}
		seen[j.kind] = true
		st, err := e.d.client.GetJob(ctx, j.tenant, j.view.ID, 0)
		if err != nil {
			return fmt.Errorf("get job %s: %w", j.view.ID, err)
		}
		result, err := json.Marshal(st.Result)
		if err != nil {
			return err
		}
		params, err := json.Marshal(server.JobRequest{Kind: j.kind, IdemKey: strings.Repeat("0", 32)})
		if err != nil {
			return err
		}
		rec := jobs.StoredJob{
			ID: j.view.ID, Tenant: "bench", Kind: j.kind, Params: params, Cost: 1,
			IdemKey: strings.Repeat("0", 32), Submitted: j.view.Submitted,
		}
		running, done := rec, rec
		rec.Status = jobs.StatusQueued
		running.Status, running.Started = jobs.StatusRunning, j.view.Started
		done.Status, done.Started, done.Finished, done.Result = jobs.StatusSucceeded, j.view.Started, j.view.Finished, result
		for _, step := range []jobs.StoredJob{rec, running, done} {
			if err := store.Append(step); err != nil {
				return err
			}
		}
	}
	if len(seen) > 0 {
		r.set("jobs.journal_bytes_per_job", float64(dirBytes(dir))/float64(len(seen)))
	}
	return nil
}
