package apply

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/graph"
	"cloudless/internal/health"
	"cloudless/internal/state"
)

func TestGuardedApplyAllHealthy(t *testing.T) {
	sim := newSim()
	p := planFor(t, webConfig, state.New())
	res := Apply(context.Background(), sim, p, Options{Guard: &GuardConfig{}})
	if err := res.Err(); err != nil {
		t.Fatalf("guarded apply of a healthy plan failed: %s", err)
	}
	if res.GateFailures != 0 || len(res.FuseTripped) != 0 {
		t.Errorf("healthy run reports gate failures %d / trips %v", res.GateFailures, res.FuseTripped)
	}
	if sim.Metrics().HealthReads == 0 {
		t.Error("guarded apply issued no readiness probes")
	}
}

func TestGuardedApplyGateFailureSkipsDependents(t *testing.T) {
	sim := newSim()
	sim.InjectUnhealthy(cloud.UnhealthySpec{Type: "aws_network_interface"})
	p := planFor(t, webConfig, state.New())
	res := Apply(context.Background(), sim, p, Options{
		ContinueOnError: true,
		Guard:           &GuardConfig{},
	})

	nicErr := res.Errors["aws_network_interface.nic"]
	if !health.IsGateError(nicErr) {
		t.Fatalf("nic error = %v, want a gate error", nicErr)
	}
	var ge *health.GateError
	errors.As(nicErr, &ge)
	if ge.Addr != "aws_network_interface.nic" {
		t.Errorf("gate error addr = %q", ge.Addr)
	}
	if res.GateFailures != 1 {
		t.Errorf("GateFailures = %d, want 1", res.GateFailures)
	}
	// The unhealthy resource exists and its identity is recorded — never an
	// orphan.
	rs := res.State.Get("aws_network_interface.nic")
	if rs == nil || rs.ID == "" {
		t.Fatal("never-ready resource missing from state")
	}
	if _, err := sim.Get(context.Background(), rs.Type, rs.ID); err != nil {
		t.Errorf("recorded unhealthy resource not in cloud: %s", err)
	}
	// Its dependent never ran; independent branches completed.
	if got := res.Report.Status["aws_virtual_machine.web"]; got != graph.StatusSkipped {
		t.Errorf("vm status = %s, want skipped", got)
	}
	for _, addr := range []string{"aws_vpc.main", "aws_subnet.s[0]", "aws_subnet.s[1]"} {
		if got := res.Report.Status[addr]; got != graph.StatusDone {
			t.Errorf("%s status = %s, want done", addr, got)
		}
	}
	if res.HealthWait <= 0 {
		t.Error("HealthWait not accounted")
	}
}

func flatVPCs(n int, prefix, region string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
resource "aws_vpc" %q {
  name       = %q
  region     = %q
  cidr_block = "10.%d.0.0/16"
}
`, fmt.Sprintf("%s%d", prefix, i), fmt.Sprintf("%s%d", prefix, i), region, i+byteOffset(prefix))
	}
	return b.String()
}

func byteOffset(prefix string) int {
	if len(prefix) == 0 {
		return 0
	}
	return int(prefix[0]) % 100
}

func TestGuardedFuseStopsAdmission(t *testing.T) {
	sim := newSim()
	sim.InjectUnhealthy(cloud.UnhealthySpec{Count: 3, Type: "aws_vpc"})
	p := planFor(t, flatVPCs(6, "v", "us-east-1"), state.New())
	res := Apply(context.Background(), sim, p, Options{
		Concurrency:     1, // deterministic creation order
		ContinueOnError: true,
		Guard:           &GuardConfig{}, // default MaxFailures 3
	})

	done, failed, skipped := res.Report.Counts()
	if failed != 3 {
		t.Errorf("failed = %d, want 3", failed)
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3 (fuse should refuse admission)", skipped)
	}
	if done != 0 {
		t.Errorf("done = %d, want 0", done)
	}
	if len(res.FuseTripped) == 0 {
		t.Fatal("fuse never tripped")
	}
	found := false
	for _, d := range res.FuseTripped {
		if d == health.RunDomain {
			found = true
		}
	}
	if !found {
		t.Errorf("run domain not tripped: %v", res.FuseTripped)
	}
}

func TestGuardedFuseRegionIsolation(t *testing.T) {
	sim := newSim()
	// Every us-west-2 create lands broken; us-east-1 is healthy. The west ops
	// sort first, so by the time east ops are admitted its sibling's fuse
	// has already tripped — they must still run.
	sim.InjectUnhealthy(cloud.UnhealthySpec{Count: 2, Region: "us-west-2"})
	src := flatVPCs(2, "awest", "us-west-2") + flatVPCs(4, "zeast", "us-east-1")
	p := planFor(t, src, state.New())
	res := Apply(context.Background(), sim, p, Options{
		Concurrency:     1,
		ContinueOnError: true,
		Guard:           &GuardConfig{}, // us-west-2 trips on fraction 2/2
	})

	if got := res.FuseTripped; len(got) != 1 || got[0] != health.RegionDomain("us-west-2") {
		t.Fatalf("FuseTripped = %v, want [region:us-west-2]", got)
	}
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("aws_vpc.zeast%d", i)
		if got := res.Report.Status[addr]; got != graph.StatusDone {
			t.Errorf("%s = %s, want done (healthy region starved by sibling trip)", addr, got)
		}
	}
	// The first west failure already crosses the 0.5 fraction of the
	// region's 2 planned ops, so the second west op is refused admission.
	if res.GateFailures != 1 {
		t.Errorf("GateFailures = %d, want 1", res.GateFailures)
	}
	if got := res.Report.Status["aws_vpc.awest1"]; got != graph.StatusSkipped {
		t.Errorf("awest1 = %s, want skipped by the tripped region fuse", got)
	}
}

// Satellite: Result.Err must be deterministic regardless of map iteration
// order — sorted addresses, stable count.
func TestResultErrDeterministic(t *testing.T) {
	res := &Result{Errors: map[string]error{
		"c.z": errors.New("zerr"),
		"a.b": errors.New("aerr"),
		"b.m": errors.New("merr"),
	}}
	want := "3 operations failed (first: a.b: aerr)"
	for i := 0; i < 20; i++ {
		if got := res.Err().Error(); got != want {
			t.Fatalf("Err() = %q, want %q", got, want)
		}
	}
	one := &Result{Errors: map[string]error{"a.b": errors.New("boom")}}
	if got := one.Err().Error(); got != "1 operation failed: a.b: boom" {
		t.Errorf("single-error fold = %q", got)
	}
	if (&Result{}).Err() != nil {
		t.Error("empty result yields an error")
	}
}

// Satellite: ContinueOnError × journal. One branch fails definitively while
// another commits; recovery must replay the journal without re-driving the
// committed branch.
func TestContinueOnErrorJournalRecoverSkipsCommitted(t *testing.T) {
	const src = `
resource "aws_vpc" "a" {
  name       = "a"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "bad" {
  name       = "bad"
  vpc_id     = aws_vpc.a.id
  cidr_block = "192.168.0.0/24"
}

resource "aws_vpc" "b" {
  name       = "b"
  cidr_block = "10.1.0.0/16"
}
`
	sim := newSim()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, src, state.New())
	res := Apply(context.Background(), sim, p, Options{ContinueOnError: true, Journal: j})
	if res.Err() == nil {
		t.Fatal("out-of-range subnet CIDR was accepted")
	}
	if res.State.Get("aws_vpc.b") == nil {
		t.Fatal("independent branch did not commit")
	}
	j.Close()

	createsBefore := sim.Metrics().Creates

	js, err := ReadJournal(path)
	if err != nil || js == nil {
		t.Fatalf("read journal: %v, %v", js, err)
	}
	// The definitive rejection is journaled as failed, not in doubt.
	if got := js.InDoubt(); len(got) != 0 {
		t.Fatalf("in-doubt ops after definitive failure: %v", got)
	}
	if js.Ops["aws_subnet.bad"] == nil || js.Ops["aws_subnet.bad"].FailError == "" {
		t.Fatal("failed op carries no fail record")
	}

	recovered, rep := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("recover report: %s", err)
	}
	if rep.Confirmed != 2 {
		t.Errorf("Confirmed = %d, want 2 (both vpcs)", rep.Confirmed)
	}
	if rep.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0 — nothing was in doubt", rep.Resumed)
	}
	// Committed branches are folded in from done records, never re-driven.
	if got := sim.Metrics().Creates; got != createsBefore {
		t.Errorf("recover issued %d extra creates", got-createsBefore)
	}
	if sim.Metrics().IdemReplays != 0 {
		t.Errorf("IdemReplays = %d, want 0", sim.Metrics().IdemReplays)
	}
	for _, addr := range []string{"aws_vpc.a", "aws_vpc.b"} {
		if recovered.Get(addr) == nil {
			t.Errorf("%s missing from reconciled state", addr)
		}
	}
	if recovered.Get("aws_subnet.bad") != nil {
		t.Error("definitively-rejected op reappeared in reconciled state")
	}
}
