package cloudless_test

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"testing"

	cloudless "cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
)

func newSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

const stackConfig = `
variable "vm_count" {
  type    = number
  default = 2
}

resource "aws_vpc" "net" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.net.id
  cidr_block = cidrsubnet(aws_vpc.net.cidr_block, 8, 1)
}

resource "aws_network_interface" "web" {
  count     = var.vm_count
  name      = "web-nic-${count.index}"
  subnet_id = aws_subnet.app.id
}

resource "aws_virtual_machine" "web" {
  count   = var.vm_count
  name    = "web-${count.index}"
  nic_ids = [aws_network_interface.web[count.index].id]
}

output "vm_ids" { value = aws_virtual_machine.web[*].id }
`

func openStack(t *testing.T, sim cloud.Interface, policies string) *cloudless.Stack {
	t.Helper()
	s, err := cloudless.Open(cloudless.Options{
		Sources:  map[string]string{"main.ccl": stackConfig},
		Cloud:    sim,
		Policies: policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFigure1Lifecycle walks the paper's Figure 1 loop end to end:
// validate -> plan -> apply -> update -> drift detect -> repair ->
// policy-driven evolution -> rollback -> destroy.
func TestFigure1Lifecycle(t *testing.T) {
	sim := newSim()
	ctx := context.Background()
	s := openStack(t, sim, `
policy "budget" {
  phase = "plan"
  when  = plan.monthly_cost > 10000
  deny { message = "over budget" }
}
policy "scale-on-load" {
  phase = "operate"
  when  = metric.nic_load > 0.8
  scale {
    variable = "vm_count"
    delta    = 1
    max      = 5
  }
}
`)

	// Validate.
	if res := s.Validate(); res.HasErrors() {
		t.Fatalf("validate: %+v", res.Errors())
	}

	// Plan + apply.
	p, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.Creates != 6 {
		t.Fatalf("plan: %s", p.Summary())
	}
	res, diagnoses, err := s.Apply(ctx, p, cloudless.ApplyOptions{})
	if err != nil {
		t.Fatalf("apply: %s (diagnoses: %v)", err, diagnoses)
	}
	if res.Applied != 6 {
		t.Errorf("applied = %d", res.Applied)
	}
	vmIDs := s.Outputs()["vm_ids"].([]any)
	if len(vmIDs) != 2 {
		t.Errorf("vm_ids = %v", vmIDs)
	}
	serialAfterDeploy := s.DB().Serial()

	// Re-plan: no-op.
	p2, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PendingCount() != 0 {
		t.Fatalf("replan: %s", p2.Summary())
	}

	// Drift: out-of-band change, detected via activity log, then reverted.
	vpcState := s.DB().Snapshot().Get("aws_vpc.net")
	if _, err := sim.Update(ctx, cloud.UpdateRequest{
		Type: "aws_vpc", ID: vpcState.ID,
		Attrs:     map[string]eval.Value{"enable_dns": eval.False},
		Principal: "legacy-script",
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.WatchDrift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Items) != 1 || rep.Items[0].Actor != "legacy-script" {
		t.Fatalf("drift = %+v", rep.Items)
	}
	if _, err := s.ReconcileDrift(ctx, rep, drift.Revert); err != nil {
		t.Fatal(err)
	}
	live, _ := sim.Get(ctx, "aws_vpc", vpcState.ID)
	if !live.Attr("enable_dns").Equal(eval.True) {
		t.Error("drift not reverted in cloud")
	}

	// Policy-driven evolution: high load scales vm_count 2 -> 3; an
	// incremental plan confined to the web resources applies it.
	decs, err := s.Observe(map[string]any{"nic_load": 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 {
		t.Fatalf("decisions = %+v", decs)
	}
	if v, _ := s.Var("vm_count"); v.(float64) != 3 {
		t.Fatalf("vm_count = %v", v)
	}
	p3, err := s.PlanIncremental(ctx, "aws_network_interface.web", "aws_virtual_machine.web")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Creates != 2 { // one nic + one vm
		t.Fatalf("incremental plan: %s", p3.Summary())
	}
	if _, _, err := s.Apply(ctx, p3, cloudless.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if sim.Count("aws_virtual_machine") != 3 {
		t.Errorf("cloud has %d VMs", sim.Count("aws_virtual_machine"))
	}

	// Time machine: roll back to the 2-VM deployment.
	rp, err := s.PlanRollback(serialAfterDeploy)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecuteRollback(ctx, rp); err != nil {
		t.Fatalf("rollback: %s", err)
	}
	if sim.Count("aws_virtual_machine") != 2 {
		t.Errorf("after rollback: %d VMs", sim.Count("aws_virtual_machine"))
	}

	// Destroy.
	if _, err := s.Destroy(ctx); err != nil {
		t.Fatalf("destroy: %s", err)
	}
	if sim.TotalResources() != 0 {
		t.Errorf("cloud not empty: %d", sim.TotalResources())
	}
}

func TestPolicyDeniesApply(t *testing.T) {
	sim := newSim()
	s := openStack(t, sim, `
policy "freeze" {
  phase = "plan"
  when  = plan.creates > 0
  deny { message = "change freeze in effect" }
}
`)
	p, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Apply(context.Background(), p, cloudless.ApplyOptions{})
	var denied *cloudless.ErrPolicyDenied
	if !errorsAs(err, &denied) || !strings.Contains(denied.Message, "freeze") {
		t.Fatalf("err = %v", err)
	}
	// Nothing was created.
	if sim.TotalResources() != 0 {
		t.Error("denied apply still created resources")
	}
	// SkipPolicyCheck bypasses.
	if _, _, err := s.Apply(context.Background(), p, cloudless.ApplyOptions{SkipPolicyCheck: true}); err != nil {
		t.Fatal(err)
	}
}

func errorsAs(err error, target any) bool {
	if err == nil {
		return false
	}
	if t, ok := target.(**cloudless.ErrPolicyDenied); ok {
		if e, ok := err.(*cloudless.ErrPolicyDenied); ok {
			*t = e
			return true
		}
	}
	return false
}

func TestApplyProducesDiagnosesOnFailure(t *testing.T) {
	// Constraint violations reach the user as IaC-level diagnoses.
	sim := newSim()
	src := `
resource "aws_vpc" "a" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}
resource "aws_vpc" "b" {
  name       = "net"
  cidr_block = "10.1.0.0/16"
}
`
	s, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": src},
		Cloud:   sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, diagnoses, err := s.Apply(context.Background(), p, cloudless.ApplyOptions{})
	if err == nil {
		t.Fatal("duplicate names must fail at the cloud")
	}
	if len(diagnoses) != 1 {
		t.Fatalf("diagnoses = %+v", diagnoses)
	}
	if !strings.Contains(diagnoses[0].RootCause, "unique per region") {
		t.Errorf("root cause = %q", diagnoses[0].RootCause)
	}
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := cloudless.Open(cloudless.Options{Sources: map[string]string{"m.ccl": ""}}); err == nil {
		t.Error("missing cloud accepted")
	}
	if _, err := cloudless.Open(cloudless.Options{Cloud: newSim()}); err == nil {
		t.Error("missing sources accepted")
	}
	if _, err := cloudless.Open(cloudless.Options{
		Cloud:   newSim(),
		Sources: map[string]string{"m.ccl": "resource \"aws_vpc\" {"},
	}); err == nil {
		t.Error("syntax errors accepted")
	}
}

func TestStackOverHTTP(t *testing.T) {
	// The whole facade also works against the cloud over a real network
	// path: HTTP server + client.
	sim := newSim()
	srv := cloud.NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil)))
	httpSrv := newHTTPServer(t, srv)
	client := cloud.NewClient(httpSrv, nil)

	s, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": stackConfig},
		Cloud:   client,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(context.Background(), p, cloudless.ApplyOptions{}); err != nil {
		t.Fatalf("apply over HTTP: %s", err)
	}
	if sim.Count("aws_virtual_machine") != 2 {
		t.Errorf("VMs = %d", sim.Count("aws_virtual_machine"))
	}
}

func TestSensitiveOutputRedaction(t *testing.T) {
	sim := newSim()
	src := `
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
resource "azure_sql_server" "db" {
  name           = "db"
  admin_password = "s3cret!"
}
output "fqdn"     { value = azure_sql_server.db.fqdn }
output "password" {
  value     = azure_sql_server.db.id
  sensitive = true
}
`
	s, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": src},
		Cloud:   sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(context.Background(), p, cloudless.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if !s.OutputIsSensitive("password") || s.OutputIsSensitive("fqdn") {
		t.Error("sensitivity flags wrong")
	}
	disp := s.DisplayOutputs()
	if disp["password"] != "(sensitive)" {
		t.Errorf("display password = %v", disp["password"])
	}
	if disp["fqdn"] == "(sensitive)" {
		t.Error("non-sensitive output redacted")
	}
	// The real value is still recorded for machine consumers.
	if s.Outputs()["password"] == "(sensitive)" {
		t.Error("raw output redacted in state")
	}
}
