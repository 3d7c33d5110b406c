package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/server"
	"cloudless/internal/statedb"
	"cloudless/internal/workspace"
)

// The commands run as a user runs them — one process per command in spirit:
// each call opens the workspace's data directory afresh in its in-process
// cloudlessd — against a cloud simulator served over HTTP.

const baseConfig = `
resource "aws_vpc" "main" {
  name       = "cli"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "main" {
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
}

resource "aws_network_interface" "n1" {
  name      = "nic-1"
  subnet_id = aws_subnet.main.id
}

resource "aws_virtual_machine" "vm1" {
  name    = "vm-1"
  nic_ids = [aws_network_interface.n1.id]
}
`

const twoMore = `
resource "aws_network_interface" "n2" {
  name      = "nic-2"
  subnet_id = aws_subnet.main.id
}

resource "aws_virtual_machine" "vm2" {
  name    = "vm-2"
  nic_ids = [aws_network_interface.n2.id]
}
`

// cli is one user's working directory: a configuration, a data directory and
// the flags every command shares.
type cli struct {
	t       *testing.T
	dir     string
	dataDir string
	flags   []string
}

func newCLI(t *testing.T, cloudURL string) *cli {
	t.Helper()
	tmp := t.TempDir()
	c := &cli{t: t, dir: filepath.Join(tmp, "infra"), dataDir: filepath.Join(tmp, "data")}
	if err := os.Mkdir(c.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c.flags = []string{"-dir", c.dir, "-data-dir", c.dataDir, "-cloud", cloudURL}
	return c
}

func (c *cli) configure(src string) {
	c.t.Helper()
	if err := os.WriteFile(filepath.Join(c.dir, "main.ccl"), []byte(src), 0o644); err != nil {
		c.t.Fatal(err)
	}
}

// run calls one command with the shared flags and returns what it printed.
func (c *cli) run(cmd func([]string) error, extra ...string) (string, error) {
	c.t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		c.t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		printed <- string(out)
	}()
	err = cmd(append(append([]string{}, c.flags...), extra...))
	os.Stdout = stdout
	w.Close()
	return <-printed, err
}

func (c *cli) must(cmd func([]string) error, extra ...string) string {
	c.t.Helper()
	out, err := c.run(cmd, extra...)
	if err != nil {
		c.t.Fatalf("%v: %v\n%s", extra, err, out)
	}
	return out
}

func cmdPlan(args []string) error  { return cmdPlanApply(args, false) }
func cmdApply(args []string) error { return cmdPlanApply(args, true) }

var planLine = regexp.MustCompile(`plan: (\d+) to add, .* \(base serial (\d+)\)`)

// planned runs `plan` and returns how many creates it holds and the serial it
// was computed at.
func (c *cli) planned() (creates, serial int) {
	c.t.Helper()
	out := c.must(cmdPlan)
	m := planLine.FindStringSubmatch(out)
	if m == nil {
		c.t.Fatalf("plan printed no summary line:\n%s", out)
	}
	creates, _ = strconv.Atoi(m[1])
	serial, _ = strconv.Atoi(m[2])
	return creates, serial
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// newSim is a cloud with no API rate limit: a full drift scan is 190 lists.
func newSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

// TestRollbackGoesThroughTheGoldenState: history lists the engine's serials
// (the ones plan prints), and a rollback to one of them is a commit like any
// other — the next commands, which reopen the data directory, see the estate
// it left: no drift and nothing to plan for the old configuration.
func TestRollbackGoesThroughTheGoldenState(t *testing.T) {
	sim := newSim()
	srv := httptest.NewServer(cloud.NewServer(sim, quiet))
	defer srv.Close()
	c := newCLI(t, srv.URL)

	c.configure(baseConfig)
	c.must(cmdApply)
	_, first := c.planned()
	c.configure(baseConfig + twoMore)
	c.must(cmdApply)
	_, second := c.planned()
	if sim.TotalResources() != 6 || second <= first {
		t.Fatalf("after two applies the cloud holds %d resources at serials %d, %d", sim.TotalResources(), first, second)
	}

	history := c.must(cmdHistory)
	for serial, resources := range map[int]int{first: 4, second: 6} {
		want := regexp.MustCompile(fmt.Sprintf(`(?m)^\s+%d\s+apply\s+%d resource\(s\)$`, serial, resources))
		if !want.MatchString(history) {
			t.Errorf("history does not list the apply at plan's serial %d with %d resources:\n%s", serial, resources, history)
		}
	}

	if out := c.must(cmdRollback, "-to", strconv.Itoa(first), "-dry-run"); sim.TotalResources() != 6 || !strings.Contains(out, "aws_virtual_machine.vm2") {
		t.Errorf("dry run touched the cloud (%d resources) or planned nothing for vm2:\n%s", sim.TotalResources(), out)
	}
	c.must(cmdRollback, "-to", strconv.Itoa(first))
	if sim.TotalResources() != 4 {
		t.Errorf("after the rollback the cloud holds %d resources, want 4", sim.TotalResources())
	}
	if out := c.must(cmdDrift, "-scan"); !strings.Contains(out, "no drift") {
		t.Errorf("drift scan after the rollback:\n%s", out)
	}
	c.configure(baseConfig)
	if creates, serial := c.planned(); creates != 0 || serial <= second {
		t.Errorf("plan of the first configuration after the rollback: %d to create at serial %d, want a no-op past %d", creates, serial, second)
	}

	if _, err := c.run(cmdRollback, "-to", "9999"); err == nil || !strings.Contains(err.Error(), "window [") {
		t.Errorf("rollback to a serial that never was = %v, want an error naming the readable window", err)
	}
}

// TestRollbackDryRunPrintsThePlan: a rollback is a plan, and its dry run
// prints the change lines and summary line that plan prints for the
// configuration it rolls back to.
func TestRollbackDryRunPrintsThePlan(t *testing.T) {
	sim := newSim()
	srv := httptest.NewServer(cloud.NewServer(sim, quiet))
	defer srv.Close()
	c := newCLI(t, srv.URL)

	c.configure(baseConfig)
	c.must(cmdApply)
	_, first := c.planned()
	c.configure(baseConfig + twoMore)
	c.must(cmdApply)

	rollback := c.must(cmdRollback, "-to", strconv.Itoa(first), "-dry-run")
	c.configure(baseConfig)
	planned := c.must(cmdPlan)
	if !strings.Contains(planned, "2 to destroy (4 unchanged)") {
		t.Fatalf("plan of the first configuration:\n%s", planned)
	}
	if want := fmt.Sprintf("rollback to serial %d:\n%s", first, planned); rollback != want {
		t.Errorf("rollback -dry-run printed\n%s\nwant\n%s", rollback, want)
	}
}

// crashedCLI is a user whose first apply lost the cloud just after its second
// create (the subnet) landed: the answer to that create was lost, with every
// call after it, so the journal holds the subnet in doubt. The cloud is back
// and holds the vpc and that subnet.
func crashedCLI(t *testing.T) (*cli, *cloud.Sim) {
	t.Helper()
	sim := newSim()
	api := cloud.NewServer(sim, quiet)
	var down atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "cloud unreachable", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := newCLI(t, srv.URL)
	c.configure(baseConfig)

	sim.InjectCrash(cloud.CrashAfterOp, 2, func() { down.Store(true) })
	if out, err := c.run(cmdApply); err == nil {
		t.Fatalf("apply succeeded though the cloud went away:\n%s", out)
	}
	down.Store(false)
	if sim.TotalResources() != 2 {
		t.Fatalf("the crashed apply left %d resources in the cloud, want the vpc and the in-doubt subnet", sim.TotalResources())
	}
	return c, sim
}

// oneOfEach checks that no create of baseConfig was duplicated.
func oneOfEach(t *testing.T, sim *cloud.Sim) {
	t.Helper()
	for _, typ := range []string{"aws_vpc", "aws_subnet", "aws_network_interface", "aws_virtual_machine"} {
		if n := sim.Count(typ); n != 1 {
			t.Errorf("the cloud holds %d %s, want 1", n, typ)
		}
	}
}

// TestRecoverGoesThroughTheGoldenState: the cloud goes away under an apply
// just after a create landed, leaving that op in doubt in the journal. The
// recovery is committed to the engine, so the next plan adds only what the
// crashed run never started and finishing it creates no duplicate.
func TestRecoverGoesThroughTheGoldenState(t *testing.T) {
	c, sim := crashedCLI(t)

	if out := c.must(cmdRecover); !strings.Contains(out, "1 confirmed, 1 resumed") {
		t.Errorf("recover printed:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(c.dataDir, "local", "run.journal")); !os.IsNotExist(err) {
		t.Errorf("journal after a clean recovery: %v", err)
	}
	if creates, _ := c.planned(); creates != 2 {
		t.Errorf("plan after recover wants %d creates, want the 2 the crashed run never started", creates)
	}
	c.must(cmdApply)
	oneOfEach(t, sim)
	if out := c.must(cmdRecover); !strings.Contains(out, "nothing to recover") {
		t.Errorf("recover with no journal printed:\n%s", out)
	}
}

// TestPlanThatRecoversRewritesTheStateFile: a refreshing plan recovers the
// crashed run's journal and commits the recovery to the golden state before
// it plans, so the next plan reads the same, and finishing the run creates
// no second subnet. Local mode always runs the durable engine, so the one
// subtest is its WAL backend.
func TestPlanThatRecoversRewritesTheStateFile(t *testing.T) {
	t.Run(statedb.BackendWAL, func(t *testing.T) {
		c, sim := crashedCLI(t)
		first, second := planLine.FindString(c.must(cmdPlan)), planLine.FindString(c.must(cmdPlan))
		if first == "" || second != first {
			t.Errorf("the plan after the recovering plan says %q, want %q", second, first)
		}
		c.must(cmdApply)
		oneOfEach(t, sim)
	})
}

// TestAStateFileIsAdopted: an earlier cloudlessctl kept a project's golden
// state in cloudless.state.json and a crashed run's journal beside it. The
// project's first command seeds its data directory from them, so recover
// re-drives the op in doubt and the estate is finished, not built twice.
func TestAStateFileIsAdopted(t *testing.T) {
	c, sim := crashedCLI(t)
	mgr := workspace.NewManager(workspace.ManagerOptions{Root: c.dataDir, Cloud: sim, DefaultBackend: statedb.BackendWAL})
	ws, err := mgr.Open(localWorkspace, workspace.Config{Dir: c.dir})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ws.DB().Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.CloseAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(c.dir, "cloudless.state.json")
	if err := os.WriteFile(stateFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(c.dataDir, localWorkspace, "run.journal"), stateFile+".journal"); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(c.dataDir); err != nil {
		t.Fatal(err)
	}

	if out := c.must(cmdRecover); !strings.Contains(out, "1 confirmed, 1 resumed") {
		t.Errorf("recover of the adopted journal printed:\n%s", out)
	}
	if creates, _ := c.planned(); creates != 2 {
		t.Errorf("plan after adopting the state file wants %d creates, want the 2 the crashed run never started", creates)
	}
	c.must(cmdApply)
	oneOfEach(t, sim)
}

// TestTargetPlansOnlyItsScope: -target confines the plan to the impact scope
// of an address — the address and what depends on it.
func TestTargetPlansOnlyItsScope(t *testing.T) {
	srv := httptest.NewServer(cloud.NewServer(newSim(), quiet))
	defer srv.Close()
	c := newCLI(t, srv.URL)
	c.configure(baseConfig)
	c.must(cmdApply)
	c.configure(baseConfig + twoMore)
	if creates, _ := c.planned(); creates != 2 {
		t.Fatalf("untargeted plan wants %d creates, want n2 and vm2", creates)
	}
	out := c.must(cmdPlan, "-target", "aws_virtual_machine.vm2")
	if !strings.Contains(out, "+ aws_virtual_machine.vm2") || strings.Contains(out, "aws_network_interface.n2") ||
		!strings.Contains(out, "plan: 1 to add") {
		t.Errorf("plan -target aws_virtual_machine.vm2 printed:\n%s", out)
	}
}

// TestImportSeedsTheDataDir: import writes the cloud's resources as CCL and
// seeds <out>/.cloudless with their state, so a plan of <out> has nothing to
// do; a second import into the same -out is refused.
func TestImportSeedsTheDataDir(t *testing.T) {
	srv := httptest.NewServer(cloud.NewServer(newSim(), quiet))
	defer srv.Close()
	c := newCLI(t, srv.URL)
	c.configure(baseConfig)
	c.must(cmdApply)

	out := filepath.Join(t.TempDir(), "imported")
	imported := &cli{t: t, dir: out, flags: []string{"-cloud", srv.URL}}
	if printed := imported.must(cmdImport, "-out", out); !strings.Contains(printed, "imported 4 resource(s)") {
		t.Errorf("import printed:\n%s", printed)
	}
	imported.flags = append(imported.flags, "-dir", out)
	if printed := imported.must(cmdPlan); !strings.Contains(printed, "plan: 0 to add, 0 to change, 0 to replace, 0 to destroy (4 unchanged)") {
		t.Errorf("plan of the imported program is not a no-op:\n%s", printed)
	}
	if _, err := imported.run(cmdImport, "-out", out); err == nil || !strings.Contains(err.Error(), "already holds a workspace") {
		t.Errorf("second import into %s = %v, want a refusal", out, err)
	}
}

// TestOneScenarioLocalAndServed: the local front end is a cloudlessd in the
// process, so one scenario — apply, a no-op plan, a clean scan, destroy —
// runs unchanged against the project's data directory and against a
// workspace hosted by a real cloudlessd over HTTP.
func TestOneScenarioLocalAndServed(t *testing.T) {
	scenario := func(t *testing.T, c *cli, sim *cloud.Sim) {
		c.must(cmdApply)
		if creates, _ := c.planned(); creates != 0 || sim.TotalResources() != 4 {
			t.Fatalf("after apply: the cloud holds %d resources and plan wants %d creates", sim.TotalResources(), creates)
		}
		if out := c.must(cmdDrift, "-scan"); !strings.Contains(out, "no drift") {
			t.Errorf("drift scan after apply:\n%s", out)
		}
		if out := c.must(cmdDestroy); !strings.Contains(out, "destroyed 4 resource(s)") || sim.TotalResources() != 0 {
			t.Errorf("destroy left %d resources in the cloud:\n%s", sim.TotalResources(), out)
		}
		if creates, _ := c.planned(); creates != 4 {
			t.Errorf("plan after destroy wants %d creates, want 4", creates)
		}
	}

	t.Run("local", func(t *testing.T) {
		sim := newSim()
		srv := httptest.NewServer(cloud.NewServer(sim, quiet))
		defer srv.Close()
		c := newCLI(t, srv.URL)
		c.configure(baseConfig)
		scenario(t, c, sim)
	})

	t.Run("server", func(t *testing.T) {
		sim := newSim()
		mgr := workspace.NewManager(workspace.ManagerOptions{
			Root: t.TempDir(), Cloud: sim, DefaultBackend: statedb.BackendWAL,
		})
		d := server.New(server.Options{Manager: mgr, Queue: jobs.New(jobs.Options{Workers: 2}), Logger: quiet})
		ts := httptest.NewServer(d.Handler())
		defer func() {
			ts.Close()
			if err := d.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		c := newCLI(t, "")
		c.configure(baseConfig)
		c.flags = []string{"-server", ts.URL, "-workspace", "w"}
		c.must(func(args []string) error {
			return cmdWorkspaces(append([]string{"create", "-dir", c.dir}, args...))
		})
		scenario(t, c, sim)
	})
}
