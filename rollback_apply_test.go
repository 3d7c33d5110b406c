package cloudless_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cloudless"
	"cloudless/internal/apply"
	"cloudless/internal/schema"
	"cloudless/internal/workload"
)

// rollbackTier is workload.WebTier without its load balancer. The balancer
// holds a mutable reference to every VM, and a replace cannot delete a
// resource something still references (create-before-destroy is not
// implemented), so with it no VM image could change.
func rollbackTier(vms int) string {
	src := workload.WebTier("app", 2, vms)["app.ccl"]
	return src[:strings.Index(src, `resource "aws_load_balancer"`)]
}

// rollbackTierV2 edits v1 by seed: renames some VMs (in place), changes the
// ForceNew image of others (a replace) and shrinks the NIC and VM count.
func rollbackTierV2(v1 string, vms int, rng *rand.Rand) string {
	mod := 2 + rng.Intn(2)
	rename := rng.Intn(mod)
	image := (rename + 1) % mod
	shrink := 1 + rng.Intn(2)
	v2 := strings.Replace(v1, `name    = "app-web-${count.index}"`, fmt.Sprintf(
		`name    = count.index %% %d == %d ? "app-web-v2-${count.index}" : "app-web-${count.index}"
  image   = count.index %% %d == %d ? "ami-linux-2027" : "ami-linux-2026"`, mod, rename, mod, image), 1)
	return strings.ReplaceAll(v2, fmt.Sprintf("= %d\n", vms), fmt.Sprintf("= %d\n", vms-shrink))
}

// TestRollbackThroughApplyMatchesItsPlan checks the rollback executor
// against the rollback plan: a web tier deployed on a WAL stack gets a v2
// with renames, ForceNew image edits and a count shrink, then rolls back to
// v1's serial. v1's configuration must plan as a no-op again, every
// configurable attribute in the cloud must equal v1's state (references
// following re-created resources to their new IDs), and the apply must
// have run one create per redeployment and one update per in-place revert.
func TestRollbackThroughApplyMatchesItsPlan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			vms := 4 + rng.Intn(3)
			v1 := rollbackTier(vms)
			v2 := rollbackTierV2(v1, vms, rng)
			sim := newSim()
			dir := t.TempDir()
			ctx := context.Background()
			open := func(src string) *cloudless.Stack {
				t.Helper()
				s, err := cloudless.Open(cloudless.Options{Sources: map[string]string{"app.ccl": src},
					Cloud: sim, StateBackend: cloudless.BackendWAL, StateDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			s := open(v1)
			deploy(t, s)
			v1Serial := s.DB().Serial()
			s.Close()

			s = open(v2)
			deploy(t, s)
			rp, err := s.PlanRollback(v1Serial)
			if err != nil {
				t.Fatal(err)
			}
			if rp.Creates+rp.Replaces == 0 || rp.Updates == 0 {
				t.Fatalf("seed %d plans no mix of redeployments and reverts: %s", seed, rp.Summary())
			}
			sub := s.Subscribe(cloudless.EventFilter{})
			ops := map[string]int{}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for e := range sub.C() {
					if e.Kind == "apply.op_done" {
						ops[e.Action]++
					}
				}
			}()
			err = s.ExecuteRollback(ctx, rp)
			sub.Close()
			<-done
			if err != nil {
				t.Fatalf("rollback: %v", err)
			}
			if ops["create"] != rp.Creates+rp.Replaces || ops["update"] != rp.Updates || ops["delete"] != rp.Replaces {
				t.Errorf("ops applied %v, want %d creates, %d updates, %d deletes (%s)",
					ops, rp.Creates+rp.Replaces, rp.Updates, rp.Replaces, rp.Summary())
			}
			s.Close()

			s = open(v1)
			defer s.Close()
			if p, err := s.Plan(ctx); err != nil || p.PendingCount() != 0 {
				t.Fatalf("v1 replan after the rollback: %v, %v", p.Summary(), err)
			}
			want, err := s.DB().SnapshotAt(v1Serial)
			if err != nil {
				t.Fatal(err)
			}
			got := s.DB().Snapshot()
			ids := map[string]string{}
			for _, addr := range want.Addrs() {
				ids[want.Get(addr).ID] = got.Get(addr).ID
			}
			for _, addr := range want.Addrs() {
				rs := want.Get(addr)
				live, err := sim.Get(ctx, rs.Type, got.Get(addr).ID)
				if err != nil {
					t.Fatalf("%s: %v", addr, err)
				}
				rsSchema, _ := schema.LookupResource(rs.Type)
				for name, v := range apply.RemapIDs(rs.Attrs, ids) {
					if a := rsSchema.Attr(name); a == nil || a.Computed {
						continue
					}
					if !live.Attr(name).Equal(v) {
						t.Errorf("%s.%s = %v in the cloud, want v1's %v", addr, name, live.Attr(name), v)
					}
				}
			}
			if n := sim.TotalResources(); n != got.Len() {
				t.Errorf("cloud holds %d resources, state %d", n, got.Len())
			}
		})
	}
}
