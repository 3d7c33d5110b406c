package workspace

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/drift"
	"cloudless/internal/eval"
)

// revertConfig is a VPC and a subnet whose names come from variables, with
// an output that reads one of them.
const revertConfig = `
variable "vpc_name" { default = "main" }

resource "aws_vpc" "main" {
  name       = var.vpc_name
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  name       = "s"
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}

output "vpc_name" { value = aws_vpc.main.name }
`

// deployRevertConfig opens a workspace on revertConfig over a fresh sim and
// applies it.
func deployRevertConfig(t *testing.T, journalPath string) (*Workspace, *cloud.Sim) {
	t.Helper()
	opts := cloud.DefaultOptions()
	opts.DisableRateLimit = true
	sim := cloud.NewSim(opts)
	ws, err := New(Config{Sources: map[string]string{"main.ccl": revertConfig}, Cloud: sim, JournalPath: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close(context.Background()) })
	applyConfig(t, ws)
	return ws, sim
}

func applyConfig(t *testing.T, ws *Workspace) {
	t.Helper()
	ctx := context.Background()
	p, err := ws.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.Apply(ctx, p, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileRevert(t *testing.T) {
	ws, sim := deployRevertConfig(t, "")
	ctx := context.Background()
	vpc := ws.DB().Snapshot().Get("aws_vpc.main")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})

	rep, _ := ws.ScanDrift(ctx)
	res, err := ws.ReconcileDrift(ctx, rep, drift.Revert)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reverted) != 1 {
		t.Fatalf("reverted = %v errs = %v", res.Reverted, res.Errors)
	}
	cur, err := sim.Get(ctx, "aws_vpc", vpc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Attr("enable_dns").Equal(eval.True) {
		t.Error("cloud value not reverted")
	}
}

// TestReconcileRevertNotifiesUnmanaged: two projects share one cloud, so
// one project's full scan lists the other's resources as unmanaged.
// Reverting its drift notifies them and deletes nothing: the other
// project's next plan is still a no-op.
func TestReconcileRevertNotifiesUnmanaged(t *testing.T) {
	ws, sim := deployRevertConfig(t, "")
	ctx := context.Background()
	other, err := New(Config{Sources: map[string]string{"main.ccl": `
resource "aws_storage_bucket" "logs" { name = "other-logs" }
resource "aws_storage_bucket" "data" { name = "other-data" }
`}, Cloud: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close(context.Background()) })
	applyConfig(t, other)
	if n := sim.TotalResources(); n != 4 {
		t.Fatalf("the two projects hold %d resources, want 4", n)
	}

	rep, err := ws.ScanDrift(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ws.ReconcileDrift(ctx, rep, drift.Revert)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reverted) != 0 || len(res.Notified) != 2 {
		t.Errorf("reverted = %v, notified = %v, want the other project's two buckets notified", res.Reverted, res.Notified)
	}
	if n := sim.TotalResources(); n != 4 {
		t.Errorf("the revert left %d resources, want 4", n)
	}
	p, err := other.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != 0 {
		t.Errorf("the other project's plan after the revert: %s", p.Summary())
	}
}

// TestReconcileRevertedListsOnlySuccesses: a revert whose resource vanished
// after the scan fails, and only the one that landed is listed as reverted.
func TestReconcileRevertedListsOnlySuccesses(t *testing.T) {
	ws, sim := deployRevertConfig(t, "")
	ctx := context.Background()
	st := ws.DB().Snapshot()
	vpc, sub := st.Get("aws_vpc.main"), st.Get("aws_subnet.s")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_subnet", ID: sub.ID,
		Attrs: map[string]eval.Value{"name": eval.String("hijacked")}, Principal: "ops"})
	rep, err := ws.ScanDrift(ctx)
	if err != nil || len(rep.Items) != 2 {
		t.Fatalf("scan: %v, %+v", err, rep)
	}
	if err := sim.Delete(ctx, "aws_subnet", sub.ID, "ops"); err != nil {
		t.Fatal(err)
	}
	res, err := ws.ReconcileDrift(ctx, rep, drift.Revert)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Reverted) != "[aws_vpc.main]" {
		t.Errorf("reverted = %v, want [aws_vpc.main]", res.Reverted)
	}
	if res.Errors["aws_subnet.s"] == nil || len(res.Errors) != 1 {
		t.Errorf("errors = %v, want the vanished subnet's", res.Errors)
	}
}

// TestRollbackAndDriftRevertKeepOutputs: the root outputs are the last
// configuration apply's; neither a rollback nor a drift revert, which run
// plans without a value store, rewrites them.
func TestRollbackAndDriftRevertKeepOutputs(t *testing.T) {
	ws, sim := deployRevertConfig(t, "")
	ctx := context.Background()
	deployed := ws.DB().Serial()
	if err := ws.SetVar("vpc_name", "v2"); err != nil {
		t.Fatal(err)
	}
	applyConfig(t, ws)
	want := fmt.Sprint(ws.Outputs())
	if want != "map[vpc_name:v2]" {
		t.Fatalf("outputs after the v2 apply = %s", want)
	}

	vpc := ws.DB().Snapshot().Get("aws_vpc.main")
	_, _ = sim.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: vpc.ID,
		Attrs: map[string]eval.Value{"enable_dns": eval.False}, Principal: "ops"})
	rep, _ := ws.ScanDrift(ctx)
	if res, err := ws.ReconcileDrift(ctx, rep, drift.Revert); err != nil || len(res.Reverted) != 1 {
		t.Fatalf("drift revert: %v, %+v", err, res)
	}
	if got := fmt.Sprint(ws.Outputs()); got != want {
		t.Errorf("outputs after the drift revert = %s, want %s", got, want)
	}

	rp, err := ws.PlanRollback(deployed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.ExecuteRollback(ctx, rp); err != nil {
		t.Fatal(err)
	}
	if live, _ := sim.Get(ctx, "aws_vpc", vpc.ID); live.Attr("name").AsString() != "main" {
		t.Fatalf("rollback did not rename the vpc back: %v", live.Attr("name"))
	}
	if got := fmt.Sprint(ws.Outputs()); got != want {
		t.Errorf("outputs after the rollback = %s, want %s", got, want)
	}
}

// TestFailedRollbackCommitsNothing: a rollback whose first cloud call dies
// commits nothing and leaves its journal for Recover.
func TestFailedRollbackCommitsNothing(t *testing.T) {
	ws, sim := deployRevertConfig(t, filepath.Join(t.TempDir(), "run.journal"))
	deployed := ws.DB().Serial()
	if err := ws.SetVar("vpc_name", "v2"); err != nil {
		t.Fatal(err)
	}
	applyConfig(t, ws)
	before := ws.DB().Serial()
	rp, err := ws.PlanRollback(deployed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.InjectCrash(cloud.CrashBeforeOp, 1, cancel)
	err = ws.ExecuteRollback(ctx, rp)
	sim.ClearCrash()
	if err == nil {
		t.Fatal("rollback succeeded despite the crash")
	}
	if got := ws.DB().Serial(); got != before {
		t.Errorf("failed rollback moved the serial from %d to %d", before, got)
	}
	if !ws.HasStaleJournal() {
		t.Error("failed rollback discarded its journal")
	}
}
