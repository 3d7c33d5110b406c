package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cloudless/internal/workload"
)

// dagSources is workload.RandomDAG(decls, seed) with one input variable per
// VM spliced into that VM's name, so Stack.SetVar("rev_<i>", n) edits
// exactly one declaration and nothing else about the graph changes. It
// returns the sources and the number of editable VMs.
func dagSources(decls int, seed int64) (map[string]string, int) {
	files := workload.RandomDAG(decls, seed)
	src := files["rand.ccl"]
	vms := strings.Count(src, `resource "aws_virtual_machine"`)
	pairs := make([]string, 0, 2*vms)
	var vars strings.Builder
	for i := 0; i < vms; i++ {
		pairs = append(pairs,
			fmt.Sprintf(`"r-vm-%d"`, i),
			fmt.Sprintf(`"r-vm-%d-${var.rev_%d}"`, i, i))
		fmt.Fprintf(&vars, "\nvariable \"rev_%d\" {\n  type    = string\n  default = \"0\"\n}\n", i)
	}
	files["rand.ccl"] = strings.NewReplacer(pairs...).Replace(src)
	files["vars.ccl"] = vars.String()
	return files, vms
}

// vmAddr is the state address of editable VM i.
func vmAddr(i int) string { return fmt.Sprintf("aws_virtual_machine.r%d", i) }

// vmName is the name VM i carries at revision rev.
func vmName(i int, rev string) string { return fmt.Sprintf("r-vm-%d-%s", i, rev) }

// editSchedule is the seeded, endlessly repeatable order in which edit_loop
// visits VMs: a permutation, so no VM is edited twice before all were.
func editSchedule(vms int, seed int64) []int {
	return rand.New(rand.NewSource(seed ^ 0x65646974)).Perm(vms)
}

// driftSchedule picks the k distinct VMs that cycle number `cycle` drifts.
func driftSchedule(vms, k int, seed int64, cycle int) []int {
	if k > vms {
		k = vms
	}
	return rand.New(rand.NewSource(seed ^ 0x6472696674 ^ int64(cycle)<<20)).Perm(vms)[:k]
}

// tenantName names daemon_mixed workspace i; tenantSources is its 25-resource
// web tier (1 vpc, 2 subnets, 1 sg, vms NIC+VM pairs, 1 lb).
func tenantName(seed int64, i int) string { return fmt.Sprintf("t%d-%d", seed, i) }

func tenantSources(name string, vms int) map[string]string {
	return workload.WebTier(name, 2, vms)
}

// tenantResources is the resource count of tenantSources(_, vms).
func tenantResources(vms int) int { return 5 + 2*vms }
