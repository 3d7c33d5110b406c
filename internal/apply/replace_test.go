package apply

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/state"
)

// webNoVM is webConfig without the VM: a VPC, two subnets and a NIC, each
// holding an immutable (ForceNew) reference to the one before it.
var webNoVM = func() string {
	s := strings.Replace(webConfig, `resource "aws_virtual_machine" "web" {
  name    = "web"
  nic_ids = [aws_network_interface.nic.id]
}`, "", 1)
	return strings.Replace(s, `output "vm_id"     { value = aws_virtual_machine.web.id }`, "", 1)
}()

// webNoVMCidr edits the VPC's cidr_block, which cascades: the VPC, both
// subnets and the NIC are replaced.
var webNoVMCidr = strings.Replace(webNoVM, `cidr_block = "10.0.0.0/16"`, `cidr_block = "10.1.0.0/16"`, 1)

// TestApplyCascadingReplace: a replace deletes what its replaced dependents
// still reference, so the apply destroys every replaced resource,
// dependents first, before it creates any of them again.
func TestApplyCascadingReplace(t *testing.T) {
	sim := newSim()
	_, res := planAndApply(t, sim, webNoVM, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	old := res.State
	p, res2 := planAndApply(t, sim, webNoVMCidr, old, Options{Scheduler: CriticalPathScheduler})
	if err := res2.Err(); err != nil {
		t.Fatalf("apply: %s", err)
	}
	if p.Replaces != 4 || p.PendingCount() != 4 {
		t.Fatalf("plan: %s, want the vpc, both subnets and the nic replaced", p.Summary())
	}
	if res2.Applied != 4 {
		t.Errorf("Applied = %d, want 4: a replace is one change", res2.Applied)
	}
	for _, addr := range old.Addrs() {
		if res2.State.Get(addr).ID == old.Get(addr).ID {
			t.Errorf("%s kept its cloud ID %s", addr, old.Get(addr).ID)
		}
	}
	vpc := res2.State.Get("aws_vpc.main")
	if got := res2.State.Get("aws_subnet.s[0]").Attr("vpc_id").AsString(); got != vpc.ID {
		t.Errorf("subnet vpc_id = %s, want the new vpc %s", got, vpc.ID)
	}
	assertConverged(t, sim, webNoVMCidr, res2.State)
}

// TestApplyCascadingReplaceCrashRecovers kills the cascading replace at
// every mutating call — four deletes in the destroy wave, then four
// creates — before and after the call lands. Recovery, a fresh plan and an
// apply must converge with no orphan and no resource created twice.
func TestApplyCascadingReplaceCrashRecovers(t *testing.T) {
	for afterN := 1; afterN <= 8; afterN++ {
		for _, point := range []cloud.CrashPoint{cloud.CrashBeforeOp, cloud.CrashAfterOp} {
			afterN, point := afterN, point
			t.Run(fmt.Sprintf("op%d-point%d", afterN, point), func(t *testing.T) {
				t.Parallel()
				sim := newSim()
				_, res := planAndApply(t, sim, webNoVM, state.New(), Options{})
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				mode := crashBefore
				if point == cloud.CrashAfterOp {
					mode = crashAfter
				}
				journalPath := filepath.Join(t.TempDir(), "apply.journal")
				p := planFor(t, webNoVMCidr, res.State)
				if !runCrashedApply(t, sim, p, journalPath, mode, point, afterN) {
					t.Fatalf("crash never fired (afterN=%d beyond the op count)", afterN)
				}
				final := recoverAndFinish(t, sim, webNoVMCidr, res.State, journalPath, nil, false)
				assertConverged(t, sim, webNoVMCidr, final)
				if got := sim.Metrics().Creates; got != 8 {
					t.Errorf("cloud saw %d creates, want 8: four to deploy, one per replacement", got)
				}
			})
		}
	}
}

// TestParentReplaceJournalRecovers: testdata/parent-format/replace.journal
// was written by an apply that still ran a replace as one "replace" op; it
// died after the delete landed, with that op's begin record in doubt.
// Recovery re-drives it: the delete finds nothing, and the create
// provisions the replacement under the journaled idempotency key.
func TestParentReplaceJournalRecovers(t *testing.T) {
	const v1 = `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}
`
	v2 := strings.Replace(v1, "10.0.0.0/16", "10.1.0.0/16", 1)
	ctx := context.Background()
	sim := newSim()
	_, res := planAndApply(t, sim, v1, state.New(), Options{})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	old := res.State.Get("aws_vpc.main")
	if err := sim.Delete(ctx, old.Type, old.ID, "cloudless"); err != nil {
		t.Fatal(err)
	}

	js, err := ReadJournal(filepath.Join("testdata", "parent-format", "replace.journal"))
	if err != nil || js == nil {
		t.Fatalf("ReadJournal(fixture) = %v, %v", js, err)
	}
	begin := js.Ops["aws_vpc.main"].Begin
	if fmt.Sprint(js.InDoubt()) != "[aws_vpc.main]" || begin.Action != "replace" || begin.ID != old.ID {
		t.Fatalf("fixture: in doubt %v, begin %+v; want one replace of %s", js.InDoubt(), begin, old.ID)
	}
	st, rep := Recover(ctx, sim, js, res.State, Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Resumed != 1 {
		t.Errorf("resumed = %d, want 1", rep.Resumed)
	}
	if got := st.Get("aws_vpc.main"); got == nil || got.ID == old.ID || got.Attr("cidr_block").AsString() != "10.1.0.0/16" {
		t.Errorf("recovered vpc = %+v, want a new 10.1.0.0/16 vpc", got)
	}
	assertConverged(t, sim, v2, st)
}
