// Package chaosd is the daemon-level chaos harness (DESIGN.md S28): it
// builds the real cloudlessd binary, runs it as a subprocess against an
// external (in-process HTTP) cloud simulator, and SIGKILLs the whole
// daemon mid-plan/mid-apply across many tenants — then restarts it on the
// same data dir and checks the crash-safety contract end to end:
//
//   - zero lost jobs: every job ID acknowledged resolves over HTTP after
//     the restart, unless the queue's retention has retired it (checkJobs);
//   - every job that was queued or running at the kill reaches a correct
//     terminal state after restart (mid-apply jobs resume through the
//     workspace's journal recovery under their original idempotency keys);
//   - zero duplicate creates and zero orphans: the simulated cloud holds
//     exactly the union of the workspaces' golden states;
//   - convergence: once the dust settles, every tenant's plan is a no-op.
//
// The kill is a real SIGKILL of a real process — no goroutine stand-ins —
// so abandoned work cannot keep mutating the cloud behind the harness's
// back: the cloud outlives the daemon precisely because it is a separate
// (in-process HTTP) server. Both the benchharness DR experiment and the
// daemon-chaos CI smoke test drive this harness; CLOUDLESS_CHAOS_TRIALS
// scales the trial budget in both.
package chaosd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/workload"
)

// Options tune Run.
type Options struct {
	// Trials is the kill/restart budget (required > 0).
	Trials int
	// Tenants is how many workspaces share the daemon (default 3).
	Tenants int
	// Seed feeds the deterministic trial schedule (default 1).
	Seed int64
	// Workers is the daemon's job worker ceiling (default 4).
	Workers int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Result is the harness outcome. Any non-zero invariant counter means the
// crash-safety contract broke; Err summarizes the first violation.
type Result struct {
	Trials         int `json:"trials"`
	Kills          int `json:"kills"`
	MidFlightKills int `json:"mid_flight_kills"` // a submitted job was queued/running at SIGKILL
	JobsSubmitted  int `json:"jobs_submitted"`
	JobsRecovered  int `json:"jobs_recovered"` // pre-kill job IDs that resolved after restart

	LostJobs         int `json:"lost_jobs"`         // pre-kill IDs that 404ed after restart
	StuckJobs        int `json:"stuck_jobs"`        // in-flight jobs that never reached terminal
	DuplicateCreates int `json:"duplicate_creates"` // state entries the cloud cannot back
	Orphans          int `json:"orphans"`           // cloud resources no state knows about
	Diverged         int `json:"diverged"`          // tenants whose final plan was not a no-op

	ResumeP50Ms float64 `json:"time_to_resume_p50_ms"` // SIGKILL -> healthy daemon (incl. recovery)
	ResumeP95Ms float64 `json:"time_to_resume_p95_ms"`
	ResumeMaxMs float64 `json:"time_to_resume_max_ms"`
	resumes     []float64

	failures []string
}

// Failures returns human-readable invariant violations (empty = clean).
func (r *Result) Failures() []string { return r.failures }

// Harness runs one daemon lifecycle: build once, then spawn / kill /
// respawn against a stable data dir and cloud endpoint.
type Harness struct {
	bin     string
	dataDir string
	addr    string
	logPath string

	sim    *cloud.Sim
	simSrv *httptest.Server

	proc   *exec.Cmd
	Client *server.Client

	logf func(string, ...any)
}

// NewHarness builds cloudlessd into dir and stands up the external cloud
// sim. Call Close when done.
func NewHarness(dir string, seed int64, logf func(string, ...any)) (*Harness, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bin := filepath.Join(dir, "cloudlessd")
	build := exec.Command("go", "build", "-o", bin, "cloudless/cmd/cloudlessd")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("chaosd: build cloudlessd: %v\n%s", err, out)
	}
	// The cloud must outlive every daemon kill, so it runs in this process
	// as a real HTTP server; the daemon dials it like any remote cloud.
	simOpts := cloud.DefaultOptions()
	simOpts.DisableRateLimit = true
	simOpts.TimeScale = 0.001 // VMs provision in ~95ms: long enough for kills to land mid-apply
	simOpts.Seed = seed
	sim := cloud.NewSim(simOpts)
	simSrv := httptest.NewServer(cloud.NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		simSrv.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	h := &Harness{
		bin:     bin,
		dataDir: filepath.Join(dir, "data"),
		addr:    addr,
		logPath: filepath.Join(dir, "daemon.log"),
		sim:     sim,
		simSrv:  simSrv,
		Client:  server.NewClient("http://"+addr, "", nil),
		logf:    logf,
	}
	return h, nil
}

// Sim exposes the external cloud for invariant checks.
func (h *Harness) Sim() *cloud.Sim { return h.sim }

// Start spawns the daemon on the harness's stable address and data dir and
// waits for /healthz (which only answers after startup recovery finished).
// Returns the time from spawn to healthy.
func (h *Harness) Start(ctx context.Context) (time.Duration, error) {
	logFile, err := os.OpenFile(h.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(h.bin,
		"-addr", h.addr,
		"-cloud", h.simSrv.URL,
		"-data-dir", h.dataDir,
		"-state-backend", "wal",
		"-workers", "4",
		"-drain-timeout", "10s",
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return 0, fmt.Errorf("chaosd: start cloudlessd: %w", err)
	}
	logFile.Close() // the child holds its own descriptor
	h.proc = cmd
	hctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		if err := h.Client.Healthz(hctx); err == nil {
			return time.Since(start), nil
		}
		if hctx.Err() != nil {
			tail, _ := os.ReadFile(h.logPath)
			if len(tail) > 4096 {
				tail = tail[len(tail)-4096:]
			}
			return 0, fmt.Errorf("chaosd: daemon never became healthy; log tail:\n%s", tail)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Kill SIGKILLs the daemon — no drain, no checkpoint, exactly what a
// machine crash looks like to the process — and reaps it.
func (h *Harness) Kill() error {
	if h.proc == nil || h.proc.Process == nil {
		return fmt.Errorf("chaosd: no daemon to kill")
	}
	if err := h.proc.Process.Kill(); err != nil {
		return err
	}
	_ = h.proc.Wait()
	h.proc = nil
	return nil
}

// Close tears down the daemon (gracefully if possible) and the sim.
func (h *Harness) Close() {
	if h.proc != nil && h.proc.Process != nil {
		_ = h.proc.Process.Kill()
		_ = h.proc.Wait()
		h.proc = nil
	}
	h.simSrv.Close()
}

// tenantName names the i-th chaos workspace.
func tenantName(i int) string { return fmt.Sprintf("chaos-%d", i) }

// Run executes the full drill: deploy tenants, then Trials rounds of
// submit -> SIGKILL -> restart -> verify.
func Run(dir string, opts Options) (*Result, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("chaosd: Trials must be positive")
	}
	if opts.Tenants <= 0 {
		opts.Tenants = 3
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

	// Tenants: a small web tier each (vpc + subnets + sg + nics + vms),
	// deployed once up front so kills land on mutations of real estates.
	res := &Result{Trials: opts.Trials}
	deployed := map[string]bool{}
	submitted := map[string][]string{} // every job ID ever acknowledged, per tenant, oldest first
	for i := 0; i < opts.Tenants; i++ {
		name := tenantName(i)
		if _, err := h.Client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{
			Name: name, Sources: workload.WebTier(name, 2, 2),
		}); err != nil {
			return nil, fmt.Errorf("chaosd: create %s: %w", name, err)
		}
		st, err := h.submitAndRecord(ctx, res, submitted, name, "apply")
		if err != nil {
			return nil, err
		}
		if fin, err := h.Client.WaitJob(ctx, name, st.ID); err != nil || fin.Status != jobs.StatusSucceeded {
			return nil, fmt.Errorf("chaosd: %s initial apply: %v (%s %s)", name, err, fin.Status, fin.Err)
		}
		deployed[name] = true
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	for trial := 0; trial < opts.Trials; trial++ {
		// Pick 1-2 distinct tenants and fire one mutating job each: applies
		// converge the tier, destroys tear it down, so kills land mid-create
		// and mid-delete across trials.
		n := 1 + rng.Intn(2)
		perm := rng.Perm(opts.Tenants)[:n]
		var inflight []server.JobStatus
		var tenants []string
		for _, ti := range perm {
			name := tenantName(ti)
			kind := "apply"
			if deployed[name] && rng.Intn(3) == 0 {
				kind = "destroy"
			}
			st, err := h.submitAndRecord(ctx, res, submitted, name, kind)
			if err != nil {
				return nil, fmt.Errorf("chaosd trial %d: submit %s %s: %w", trial, name, kind, err)
			}
			inflight = append(inflight, st)
			tenants = append(tenants, name)
			// Deployment state after the dust settles is re-derived below;
			// mark the intent so later trials pick sensible kinds.
			deployed[name] = kind == "apply"
		}

		// Let the first job get claimed, then kill at a random point inside
		// the mutation window (VM provisioning takes ~95ms of sim time).
		first := inflight[0]
		killWasMidFlight := false
		pollCtx, cancelPoll := context.WithTimeout(ctx, 5*time.Second)
		for {
			st, err := h.Client.GetJob(pollCtx, tenants[0], first.ID, 0)
			if err == nil && (st.Status == jobs.StatusRunning || st.Status.Terminal()) {
				killWasMidFlight = st.Status == jobs.StatusRunning
				break
			}
			if pollCtx.Err() != nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		cancelPoll()
		time.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)

		if err := h.Kill(); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: kill: %w", trial, err)
		}
		res.Kills++
		if killWasMidFlight {
			res.MidFlightKills++
		}

		resumeStart := time.Now()
		if _, err := h.Start(ctx); err != nil {
			return nil, fmt.Errorf("chaosd trial %d: restart: %w", trial, err)
		}
		res.resumes = append(res.resumes, float64(time.Since(resumeStart))/float64(time.Millisecond))

		// Invariant: zero lost jobs, from this trial or any before it.
		res.JobsRecovered = 0
		for tenant, ids := range submitted {
			for _, m := range h.checkJobs(ctx, res, tenant, ids) {
				res.failures = append(res.failures, fmt.Sprintf("trial %d: %s", trial, m))
			}
		}

		// Invariant: in-flight jobs reach a correct terminal state — the
		// resumed mid-apply/mid-destroy job completes under its original ID.
		for i, st := range inflight {
			wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
			fin, err := h.Client.WaitJob(wctx, tenants[i], st.ID)
			cancel()
			if err != nil || !fin.Status.Terminal() {
				res.StuckJobs++
				res.failures = append(res.failures, fmt.Sprintf(
					"trial %d: job %s/%s stuck after restart: status=%s err=%v",
					trial, tenants[i], st.ID, fin.Status, err))
				continue
			}
			if fin.Status == jobs.StatusFailed {
				res.failures = append(res.failures, fmt.Sprintf(
					"trial %d: resumed job %s/%s failed: %s", trial, tenants[i], st.ID, fin.Err))
			}
		}

		// Converge the touched tenants, then check the cloud-vs-state
		// invariants across ALL tenants.
		for _, name := range tenants {
			st, err := h.submitAndRecord(ctx, res, submitted, name, "apply")
			if err != nil {
				return nil, fmt.Errorf("chaosd trial %d: converge %s: %w", trial, name, err)
			}
			wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
			fin, err := h.Client.WaitJob(wctx, name, st.ID)
			cancel()
			if err != nil || fin.Status != jobs.StatusSucceeded {
				return nil, fmt.Errorf("chaosd trial %d: converge %s: %v (%s %s)", trial, name, err, fin.Status, fin.Err)
			}
			deployed[name] = true
		}
		if msgs := h.checkInvariants(ctx, opts.Tenants, res, submitted); len(msgs) > 0 {
			for _, m := range msgs {
				res.failures = append(res.failures, fmt.Sprintf("trial %d: %s", trial, m))
			}
		}
		if (trial+1)%10 == 0 || trial == opts.Trials-1 {
			logf("chaosd: trial %d/%d: kills=%d mid-flight=%d lost=%d orphans=%d dupes=%d",
				trial+1, opts.Trials, res.Kills, res.MidFlightKills, res.LostJobs, res.Orphans, res.DuplicateCreates)
		}
	}

	if n := len(res.resumes); n > 0 {
		s := append([]float64(nil), res.resumes...)
		for i := 1; i < len(s); i++ { // insertion sort; n is small
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		res.ResumeP50Ms = s[n/2]
		res.ResumeP95Ms = s[n*95/100]
		res.ResumeMaxMs = s[n-1]
	}
	return res, nil
}

// submitAndRecord submits a job and records its acknowledged ID for the
// zero-lost-jobs sweep.
func (h *Harness) submitAndRecord(ctx context.Context, res *Result, submitted map[string][]string, tenant, kind string) (server.JobStatus, error) {
	st, err := h.Client.SubmitJob(ctx, tenant, server.JobRequest{Kind: kind})
	if err != nil {
		return st, err
	}
	res.JobsSubmitted++
	submitted[tenant] = append(submitted[tenant], st.ID)
	return st, nil
}

// retainedJobs is how many terminal jobs the daemon's queue keeps per
// tenant (the default of jobs.Options.MaxFinishedPerTenant).
const retainedJobs = 256

// checkJobs looks up one tenant's acknowledged job IDs, oldest first. The
// queue retires terminal jobs past retainedJobs oldest first, so every ID
// among the newest retainedJobs must resolve, and one may 404 only while no
// older one resolves; any other miss is a lost job.
func (h *Harness) checkJobs(ctx context.Context, res *Result, tenant string, ids []string) []string {
	var msgs []string
	resolved := false
	for i, id := range ids {
		_, err := h.Client.GetJob(ctx, tenant, id, 0)
		var ae *server.APIError
		switch {
		case err == nil:
			res.JobsRecovered++
			resolved = true
		case !resolved && i < len(ids)-retainedJobs && errors.As(err, &ae) && ae.Code == http.StatusNotFound:
			// retired
		default:
			res.LostJobs++
			msgs = append(msgs, fmt.Sprintf("job %s/%s lost after restart: %v", tenant, id, err))
		}
	}
	return msgs
}

// checkInvariants compares the simulated cloud against the union of every
// tenant's golden state: orphans, duplicate creates, missing resources,
// and plan convergence. Its plan jobs are recorded like any other.
func (h *Harness) checkInvariants(ctx context.Context, tenants int, res *Result, submitted map[string][]string) []string {
	var msgs []string
	total := 0
	for i := 0; i < tenants; i++ {
		name := tenantName(i)
		st, err := h.Client.State(ctx, name)
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("%s: fetch state: %v", name, err))
			continue
		}
		total += st.Len()
		for _, addr := range st.Addrs() {
			rs := st.Get(addr)
			if _, err := h.sim.Get(ctx, rs.Type, rs.ID); err != nil {
				res.DuplicateCreates++
				msgs = append(msgs, fmt.Sprintf("%s: state entry %s (%s %s) has no cloud resource",
					name, addr, rs.Type, rs.ID))
			}
		}
		// Convergence: a fresh plan over the converged tenant is a no-op.
		pst, err := h.submitAndRecord(ctx, res, submitted, name, "plan")
		if err == nil {
			wctx, cancel := context.WithTimeout(ctx, time.Minute)
			fin, werr := h.Client.WaitJob(wctx, name, pst.ID)
			cancel()
			if werr == nil && fin.Status == jobs.StatusSucceeded {
				if sum, perr := server.ResultAs[server.PlanSummary](fin); perr == nil && sum.Pending() > 0 {
					res.Diverged++
					msgs = append(msgs, fmt.Sprintf("%s: post-recovery plan has %d pending ops", name, sum.Pending()))
				}
			}
		}
	}
	if extra := h.sim.TotalResources() - total; extra > 0 {
		res.Orphans += extra
		msgs = append(msgs, fmt.Sprintf("cloud holds %d resource(s) no workspace state knows about", extra))
	}
	return msgs
}
