package rollback

// Mid-rollback crash coverage: a rollback that dies halfway must, after
// journal recovery and a re-computed rollback, converge to the pre-apply
// snapshot — same attributes, no orphans, no duplicates.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// badUpdate deploys v1 (vpc + subnet), then simulates a bad change that
// replaced the VPC (new CIDR) and repointed the subnet. Returns the v1
// snapshot (rollback target) and the current state matching cloud reality.
func badUpdate(t *testing.T, sim *cloud.Sim) (v1, cur *state.State) {
	t.Helper()
	ctx := context.Background()
	vpc, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1", Principal: "cloudless",
		Attrs: map[string]eval.Value{"name": eval.String("main"), "cidr_block": eval.String("10.0.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1", Principal: "cloudless",
		Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc.ID), "cidr_block": eval.String("10.0.1.0/24")}})
	if err != nil {
		t.Fatal(err)
	}
	v1 = state.New()
	v1.Set(&state.ResourceState{Addr: "aws_vpc.main", Type: "aws_vpc", ID: vpc.ID, Region: "us-east-1", Attrs: vpc.Attrs})
	v1.Set(&state.ResourceState{Addr: "aws_subnet.s", Type: "aws_subnet", ID: sub.ID, Region: "us-east-1",
		Attrs: sub.Attrs, Dependencies: []string{"aws_vpc.main"}})

	if err := sim.Delete(ctx, "aws_subnet", sub.ID, "cloudless"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Delete(ctx, "aws_vpc", vpc.ID, "cloudless"); err != nil {
		t.Fatal(err)
	}
	vpc2, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1", Principal: "cloudless",
		Attrs: map[string]eval.Value{"name": eval.String("main"), "cidr_block": eval.String("10.99.0.0/16")}})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := sim.Create(ctx, cloud.CreateRequest{Type: "aws_subnet", Region: "us-east-1", Principal: "cloudless",
		Attrs: map[string]eval.Value{"vpc_id": eval.String(vpc2.ID), "cidr_block": eval.String("10.99.1.0/24")}})
	if err != nil {
		t.Fatal(err)
	}
	cur = state.New()
	cur.Set(&state.ResourceState{Addr: "aws_vpc.main", Type: "aws_vpc", ID: vpc2.ID, Region: "us-east-1", Attrs: vpc2.Attrs})
	cur.Set(&state.ResourceState{Addr: "aws_subnet.s", Type: "aws_subnet", ID: sub2.ID, Region: "us-east-1",
		Attrs: sub2.Attrs, Dependencies: []string{"aws_vpc.main"}})
	return v1, cur
}

// TestExecuteMidCrashRecoversToSnapshot kills a journaled rollback at every
// mutating call (delete sub, delete vpc, create vpc, create sub), both
// before and after the op lands, then recovers and finishes. The full
// rollback issues 4 mutating calls, so afterN sweeps every crash site.
func TestExecuteMidCrashRecoversToSnapshot(t *testing.T) {
	for afterN := 1; afterN <= 4; afterN++ {
		for _, point := range []cloud.CrashPoint{cloud.CrashBeforeOp, cloud.CrashAfterOp} {
			point := point
			afterN := afterN
			t.Run(fmt.Sprintf("op%d-point%d", afterN, point), func(t *testing.T) {
				t.Parallel()
				opts := cloud.DefaultOptions()
				opts.DisableRateLimit = true
				sim := cloud.NewSim(opts)
				v1, cur := badUpdate(t, sim)
				journalPath := filepath.Join(t.TempDir(), "rollback.journal")

				// Crash the rollback partway through.
				p := Compute(cur, v1)
				if p.Creates+p.Replaces == 0 {
					t.Fatalf("scenario must force redeployments: %s", p.Summary())
				}
				j, err := apply.NewJournal(journalPath, apply.Meta{Kind: "rollback", Principal: "cloudless"})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				fired := false
				sim.InjectCrash(point, afterN, func() {
					fired = true
					j.Kill()
					cancel()
				})
				_, err = Execute(ctx, sim, p, apply.Options{Principal: "cloudless", Journal: j})
				sim.ClearCrash()
				j.Close()
				if !fired {
					t.Fatalf("crash never fired (afterN=%d beyond op count)", afterN)
				}
				if err == nil {
					t.Fatal("rollback reported success despite injected crash")
				}

				// Restart: recover the journal, then re-compute and finish.
				reconciled := cur
				js, err := apply.ReadJournal(journalPath)
				if err != nil {
					t.Fatal(err)
				}
				if js == nil {
					t.Fatal("journal vanished")
				}
				st, rep := apply.Recover(context.Background(), sim, js, cur, apply.Options{})
				if err := rep.Err(); err != nil {
					t.Fatalf("recover report: %s", err)
				}
				reconciled = st
				if err := os.Remove(journalPath); err != nil {
					t.Fatal(err)
				}

				p2 := Compute(reconciled, v1)
				j2, err := apply.NewJournal(journalPath, apply.Meta{Kind: "rollback", Principal: "cloudless"})
				if err != nil {
					t.Fatal(err)
				}
				final, err := Execute(context.Background(), sim, p2,
					apply.Options{Principal: "cloudless", Journal: j2})
				if err != nil {
					t.Fatalf("continuation rollback: %s", err)
				}
				if err := j2.Discard(); err != nil {
					t.Fatal(err)
				}

				// Converged to the snapshot: nothing left to roll back, the
				// cloud holds exactly the state's resources, and the reverted
				// attributes are back.
				if p3 := Compute(final, v1); p3.PendingCount() != 0 {
					t.Errorf("rollback not converged: %s: %+v", p3.Summary(), p3.Changes)
				}
				for _, addr := range final.Addrs() {
					rs := final.Get(addr)
					if _, err := sim.Get(context.Background(), rs.Type, rs.ID); err != nil {
						t.Errorf("state entry %s (%s) missing from cloud: %s", addr, rs.ID, err)
					}
				}
				if got := sim.TotalResources(); got != final.Len() {
					t.Errorf("cloud holds %d resources, state %d (orphans or losses)", got, final.Len())
				}
				gotVPC := final.Get("aws_vpc.main")
				if gotVPC.Attr("cidr_block").AsString() != "10.0.0.0/16" {
					t.Errorf("vpc cidr = %v, want rolled back", gotVPC.Attr("cidr_block"))
				}
				if sub := final.Get("aws_subnet.s"); sub.Attr("vpc_id").AsString() != gotVPC.ID {
					t.Errorf("subnet vpc_id = %v, want %s", sub.Attr("vpc_id"), gotVPC.ID)
				}
			})
		}
	}
}
