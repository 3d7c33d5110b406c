package apply

import (
	"context"
	"strings"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

const webConfig = `
data "aws_region" "current" {}

resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 2
  name       = "s-${count.index}"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
}

resource "aws_network_interface" "nic" {
  name      = "nic"
  subnet_id = aws_subnet.s[0].id
}

resource "aws_virtual_machine" "web" {
  name    = "web"
  nic_ids = [aws_network_interface.nic.id]
}

output "vm_id"     { value = aws_virtual_machine.web.id }
output "subnet_ids" { value = aws_subnet.s[*].id }
`

func newSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

func expandSrc(t *testing.T, src string) *config.Expansion {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatalf("load: %s", diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatalf("expand: %s", diags.Error())
	}
	return ex
}

func planAndApply(t *testing.T, sim cloud.Interface, src string, prior *state.State, opts Options) (*plan.Plan, *Result) {
	t.Helper()
	ex := expandSrc(t, src)
	p, diags := plan.Compute(context.Background(), ex, prior, plan.Options{})
	if diags.HasErrors() {
		t.Fatalf("plan: %s", diags.Error())
	}
	res := Apply(context.Background(), sim, p, opts)
	return p, res
}

func TestApplyEndToEnd(t *testing.T) {
	sim := newSim()
	p, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatalf("apply: %s", err)
	}
	if res.Applied != 5 {
		t.Errorf("applied = %d", res.Applied)
	}
	_ = p

	// The state holds cloud IDs and full attribute sets.
	vm := res.State.Get("aws_virtual_machine.web")
	if vm == nil || vm.ID == "" {
		t.Fatalf("vm state = %+v", vm)
	}
	// References resolved to the real NIC ID.
	nic := res.State.Get("aws_network_interface.nic")
	gotNics := vm.Attr("nic_ids")
	if gotNics.Kind() != eval.KindList || gotNics.AsList()[0].AsString() != nic.ID {
		t.Errorf("nic_ids = %v, want [%s]", gotNics, nic.ID)
	}
	// The cloud actually holds the resources.
	cl, err := sim.Get(context.Background(), "aws_virtual_machine", vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Attr("state").AsString() != "running" {
		t.Errorf("vm cloud state = %v", cl.Attr("state"))
	}
	// Outputs.
	if res.Outputs["vm_id"].AsString() != vm.ID {
		t.Errorf("vm_id output = %v", res.Outputs["vm_id"])
	}
	ids := res.Outputs["subnet_ids"]
	if ids.Kind() != eval.KindList || len(ids.AsList()) != 2 {
		t.Errorf("subnet_ids output = %v", ids)
	}
	// Dependencies recorded for destroy ordering.
	if deps := res.State.Get("aws_subnet.s[0]").Dependencies; len(deps) != 1 || deps[0] != "aws_vpc.main" {
		t.Errorf("recorded deps = %v", deps)
	}
}

func TestApplyThenPlanIsNoop(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	ex := expandSrc(t, webConfig)
	p2, diags := plan.Compute(context.Background(), ex, res.State, plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if p2.PendingCount() != 0 {
		for a, c := range p2.Changes {
			if c.Action != plan.ActionNoop {
				t.Logf("%s -> %s %v", a, c.Action, c.ChangedAttrs)
			}
		}
		t.Fatalf("re-plan after apply: %s", p2.Summary())
	}
}

func TestApplyUpdateInPlace(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	oldID := res.State.Get("aws_virtual_machine.web").ID

	updated := strings.Replace(webConfig, `name    = "web"`, `name    = "web-v2"`, 1)
	_, res2 := planAndApply(t, sim, updated, res.State, Options{})
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	vm := res2.State.Get("aws_virtual_machine.web")
	if vm.ID != oldID {
		t.Error("in-place update must keep the cloud ID")
	}
	if vm.Attr("name").AsString() != "web-v2" {
		t.Errorf("name = %v", vm.Attr("name"))
	}
}

func TestApplyReplaceOnForceNew(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	oldID := res.State.Get("aws_virtual_machine.web").ID

	updated := strings.Replace(webConfig, `nic_ids = [aws_network_interface.nic.id]`,
		"nic_ids = [aws_network_interface.nic.id]\n  image   = \"ami-linux-2027\"", 1)
	ex := expandSrc(t, updated)
	p, diags := plan.Compute(context.Background(), ex, res.State, plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if p.Changes["aws_virtual_machine.web"].Action != plan.ActionReplace {
		t.Fatalf("action = %s", p.Changes["aws_virtual_machine.web"].Action)
	}
	res2 := Apply(context.Background(), sim, p, Options{})
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	vm := res2.State.Get("aws_virtual_machine.web")
	if vm.ID == oldID {
		t.Error("replace must produce a new cloud ID")
	}
}

func TestApplyRemovalDeletes(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	vmID := res.State.Get("aws_virtual_machine.web").ID

	// Remove the VM (and its output, which references it) from the config.
	shrunk := strings.Replace(webConfig, `resource "aws_virtual_machine" "web" {
  name    = "web"
  nic_ids = [aws_network_interface.nic.id]
}`, "", 1)
	shrunk = strings.Replace(shrunk, `output "vm_id"     { value = aws_virtual_machine.web.id }`, "", 1)
	_, res2 := planAndApply(t, sim, shrunk, res.State, Options{})
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
	if res2.State.Get("aws_virtual_machine.web") != nil {
		t.Error("vm still in state")
	}
	if _, err := sim.Get(context.Background(), "aws_virtual_machine", vmID); !cloud.IsNotFound(err) {
		t.Errorf("vm still in cloud: %v", err)
	}
}

func TestDestroyReverseOrder(t *testing.T) {
	// The simulator enforces DependencyViolation, so destroy only succeeds
	// if the applier deletes dependents before dependencies.
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	dres := Destroy(context.Background(), sim, res.State, Options{})
	if err := dres.Err(); err != nil {
		t.Fatalf("destroy: %s", err)
	}
	if dres.State.Len() != 0 {
		t.Errorf("state not empty after destroy: %v", dres.State.Addrs())
	}
	if sim.TotalResources() != 0 {
		t.Errorf("cloud not empty after destroy: %d", sim.TotalResources())
	}
}

func TestApplyRetriesTransientFailures(t *testing.T) {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.FailureRate = 0.3
	opts.Seed = 7
	sim := cloud.NewSim(opts)
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{
		MaxRetries: 8, RetryBase: time.Millisecond,
	})
	if err := res.Err(); err != nil {
		t.Fatalf("apply with fault injection: %s", err)
	}
	if res.Retries == 0 {
		t.Error("expected at least one retry at 30% failure rate")
	}
}

func TestApplyFailureSkipsDependents(t *testing.T) {
	// Make every mutation fail: the VPC create fails, so everything
	// downstream must be skipped and reported.
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	opts.FailureRate = 1.0
	sim := cloud.NewSim(opts)
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{
		MaxRetries: 2, RetryBase: time.Millisecond, ContinueOnError: true,
	})
	if res.Err() == nil {
		t.Fatal("expected failure")
	}
	_, failed, skipped := res.Report.Counts()
	if failed == 0 || skipped == 0 {
		t.Errorf("failed=%d skipped=%d", failed, skipped)
	}
}

func TestApplySchedulerPriority(t *testing.T) {
	// Both schedulers must produce a correct deployment; the performance
	// comparison lives in the benchmarks.
	for _, sched := range []Scheduler{FIFOScheduler, CriticalPathScheduler} {
		sim := newSim()
		_, res := planAndApply(t, sim, webConfig, state.New(), Options{Scheduler: sched})
		if err := res.Err(); err != nil {
			t.Fatalf("%s: %s", sched, err)
		}
	}
}

func TestApplyModuleConfig(t *testing.T) {
	resolver := config.MapResolver{
		"./modules/net": {"net.ccl": `
variable "cidr" {}
resource "aws_vpc" "main" {
  name       = "mod-vpc"
  cidr_block = var.cidr
}
output "vpc_id" { value = aws_vpc.main.id }
`},
	}
	m, diags := config.Load(map[string]string{"main.ccl": `
module "net" {
  source = "./modules/net"
  cidr   = "10.5.0.0/16"
}
resource "aws_security_group" "sg" {
  name   = "app"
  vpc_id = module.net.vpc_id
}
`})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, resolver)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	sim := newSim()
	p, diags := plan.Compute(context.Background(), ex, state.New(), plan.Options{})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	res := Apply(context.Background(), sim, p, Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	sg := res.State.Get("aws_security_group.sg")
	vpc := res.State.Get("module.net.aws_vpc.main")
	if sg == nil || vpc == nil {
		t.Fatalf("state = %v", res.State.Addrs())
	}
	if sg.Attr("vpc_id").AsString() != vpc.ID {
		t.Errorf("cross-module reference: vpc_id = %v, want %s", sg.Attr("vpc_id"), vpc.ID)
	}
}

func TestApplyRefreshDetectsOutOfBandDeletion(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webConfig, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// Someone deletes the VM outside IaC.
	vmID := res.State.Get("aws_virtual_machine.web").ID
	if err := sim.Delete(context.Background(), "aws_virtual_machine", vmID, "legacy-script"); err != nil {
		t.Fatal(err)
	}
	// A refreshing plan recreates it.
	ex := expandSrc(t, webConfig)
	p, diags := plan.Compute(context.Background(), ex, res.State, plan.Options{
		Refresh: true, Cloud: sim,
	})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	if ch := p.Changes["aws_virtual_machine.web"]; ch == nil || ch.Action != plan.ActionCreate {
		t.Fatalf("expected re-create after out-of-band deletion, got %+v", ch)
	}
	if p.RefreshReads == 0 {
		t.Error("refresh did not read the cloud")
	}
	res2 := Apply(context.Background(), sim, p, Options{})
	if err := res2.Err(); err != nil {
		t.Fatal(err)
	}
}
