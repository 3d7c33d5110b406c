package main

import (
	"bytes"
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
	"cloudless/internal/statedb"
)

// The commands run as a user runs them — one process per command in spirit:
// each call opens the state file and <state>.wal/ afresh — against a cloud
// simulator served over HTTP, with the durable backend.

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

// cli is one user's working directory: a configuration, a state file and the
// flags every command shares.
type cli struct {
	t         *testing.T
	dir       string
	statePath string
	flags     []string
}

func newCLI(t *testing.T, cloudURL string) *cli {
	t.Helper()
	tmp := t.TempDir()
	c := &cli{t: t, dir: filepath.Join(tmp, "infra"), statePath: filepath.Join(tmp, "st.json")}
	if err := os.Mkdir(c.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c.flags = []string{"-dir", c.dir, "-state", c.statePath, "-cloud", cloudURL,
		"-state-backend", "wal"}
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

// filesAgree checks the state file mirrors the engine's head, as every local
// command that may have committed leaves it.
func (c *cli) filesAgree() {
	c.t.Helper()
	e, err := statedb.NewEngine(statedb.BackendWAL, nil, statedb.EngineOptions{Dir: c.statePath + ".wal"})
	if err != nil {
		c.t.Fatal(err)
	}
	defer e.Close()
	head, err := e.Snapshot(0)
	if err != nil {
		c.t.Fatal(err)
	}
	want, _ := head.Encode()
	got, err := os.ReadFile(c.statePath)
	if err != nil {
		c.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		c.t.Errorf("%s and %s.wal/ hold different states:\n file %s\n  wal %s", c.statePath, c.statePath, got, want)
	}
}

// TestRollbackGoesThroughTheGoldenState: history lists the engine's serials
// (the ones plan prints), and a rollback to one of them is a commit like any
// other — the next commands, which read <state>.wal/, see the estate it left:
// no drift, nothing to plan for the old configuration, and a state file that
// mirrors the engine.
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
	c.filesAgree()
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
	memory := append(append([]string{}, c.flags...), "-state-backend", "memory", "-to", "1")
	if err := cmdRollback(memory); err == nil || !strings.Contains(err.Error(), "-state-backend wal") {
		t.Errorf("rollback on a memory engine = %v, want it to ask for the wal backend", err)
	}
}

// crashedCLI is a user whose first apply lost the cloud just after its second
// create (the subnet) landed: the answer to that create was lost, with every
// call after it, so the journal holds the subnet in doubt. The cloud is back
// and holds the vpc and that subnet.
func crashedCLI(t *testing.T, backend string) (*cli, *cloud.Sim) {
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
	c.flags = append(c.flags, "-state-backend", backend)
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
	c, sim := crashedCLI(t, statedb.BackendWAL)

	if out := c.must(cmdRecover); !strings.Contains(out, "1 confirmed, 1 resumed") {
		t.Errorf("recover printed:\n%s", out)
	}
	c.filesAgree()
	if _, err := os.Stat(c.statePath + ".journal"); !os.IsNotExist(err) {
		t.Errorf("journal after a clean recovery: %v", err)
	}
	if creates, _ := c.planned(); creates != 2 {
		t.Errorf("plan after recover wants %d creates, want the 2 the crashed run never started", creates)
	}
	c.must(cmdApply)
	oneOfEach(t, sim)
	c.filesAgree()
	if out := c.must(cmdRecover); !strings.Contains(out, "nothing to recover") {
		t.Errorf("recover with no journal printed:\n%s", out)
	}
}

// TestPlanThatRecoversRewritesTheStateFile: a refreshing plan recovers the
// crashed run's journal and commits the recovery before it plans, so it
// leaves the state file mirroring the engine like every local command that
// may commit. Under the memory backend the file is all the next command
// reads: left stale, it plans the recovered subnet again and the apply
// creates a second one.
func TestPlanThatRecoversRewritesTheStateFile(t *testing.T) {
	for _, backend := range []string{statedb.BackendMemory, statedb.BackendWAL} {
		t.Run(backend, func(t *testing.T) {
			c, sim := crashedCLI(t, backend)
			// A memory engine reopened from the file numbers its first commit
			// anew, so only the summary must repeat, not the base serial.
			summary := func(out string) string {
				s, _, _ := strings.Cut(planLine.FindString(out), " (base serial")
				return s
			}
			first, second := summary(c.must(cmdPlan)), summary(c.must(cmdPlan))
			if first == "" || second != first {
				t.Errorf("the plan after the recovering plan says %q, want %q", second, first)
			}
			if backend == statedb.BackendWAL {
				c.filesAgree()
			}
			c.must(cmdApply)
			oneOfEach(t, sim)
		})
	}
}
