// Package workload generates synthetic infrastructure configurations and
// update streams for the experiments: layered web topologies, microservice
// meshes, skewed-latency deployments, random DAGs, and concurrent team
// update sets. Generators are deterministic under a seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// WebTier generates a classic web topology: 1 VPC, `subnets` subnets,
// a security group, `vms` NIC+VM pairs spread across subnets, and a load
// balancer — roughly 3 + 2*vms + subnets resources.
func WebTier(name string, subnets, vms int) map[string]string {
	var b strings.Builder
	fmt.Fprintf(&b, `
resource "aws_vpc" "%[1]s" {
  name       = "%[1]s"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "%[1]s" {
  count      = %[2]d
  name       = "%[1]s-sub-${count.index}"
  vpc_id     = aws_vpc.%[1]s.id
  cidr_block = cidrsubnet(aws_vpc.%[1]s.cidr_block, 8, count.index)
}

resource "aws_security_group" "%[1]s" {
  name          = "%[1]s-sg"
  vpc_id        = aws_vpc.%[1]s.id
  ingress_ports = [80, 443]
}

resource "aws_network_interface" "%[1]s" {
  count              = %[3]d
  name               = "%[1]s-nic-${count.index}"
  subnet_id          = aws_subnet.%[1]s[count.index %% %[2]d].id
  security_group_ids = [aws_security_group.%[1]s.id]
}

resource "aws_virtual_machine" "%[1]s" {
  count   = %[3]d
  name    = "%[1]s-web-${count.index}"
  nic_ids = [aws_network_interface.%[1]s[count.index].id]
}

resource "aws_load_balancer" "%[1]s" {
  name       = "%[1]s-lb"
  subnet_ids = aws_subnet.%[1]s[*].id
  target_ids = aws_virtual_machine.%[1]s[*].id
}
`, name, subnets, vms)
	return map[string]string{name + ".ccl": b.String()}
}

// Microservices generates `services` independent service stacks, each with
// its own NICs/VMs/DNS record inside a shared VPC. Services are mutually
// independent, giving the graph width for parallelism experiments.
func Microservices(services, instancesPer int) map[string]string {
	var b strings.Builder
	b.WriteString(`
resource "aws_vpc" "mesh" {
  name       = "mesh"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "mesh" {
  name       = "mesh-sub"
  vpc_id     = aws_vpc.mesh.id
  cidr_block = "10.0.0.0/18"
}
`)
	for s := 0; s < services; s++ {
		fmt.Fprintf(&b, `
resource "aws_network_interface" "svc%[1]d" {
  count     = %[2]d
  name      = "svc%[1]d-nic-${count.index}"
  subnet_id = aws_subnet.mesh.id
}

resource "aws_virtual_machine" "svc%[1]d" {
  count   = %[2]d
  name    = "svc%[1]d-vm-${count.index}"
  nic_ids = [aws_network_interface.svc%[1]d[count.index].id]
}

resource "aws_dns_record" "svc%[1]d" {
  name  = "svc%[1]d.mesh.internal"
  value = aws_virtual_machine.svc%[1]d[0].private_ip
}
`, s, instancesPer)
	}
	return map[string]string{"mesh.ccl": b.String()}
}

// SkewedLatency generates the adversarial E2 shape: one long chain of slow
// resources (VPN gateway + database + tunnels) plus `fan` wide cheap
// resources, all within one VPC. FIFO walks start the cheap fan first and
// delay the chain; critical-path-first does not.
func SkewedLatency(fan int) map[string]string {
	var b strings.Builder
	b.WriteString(`
resource "aws_vpc" "core" {
  name       = "core"
  cidr_block = "10.0.0.0/16"
}

# The long pole: gateway -> tunnel chain.
resource "aws_vpn_gateway" "slow" {
  vpc_id = aws_vpc.core.id
}

resource "aws_vpn_tunnel" "slow" {
  vpn_gateway_id = aws_vpn_gateway.slow.id
  peer_ip        = "198.51.100.1"
}
`)
	fmt.Fprintf(&b, `
# Wide cheap fan-out.
resource "aws_subnet" "aa_fan" {
  count      = %d
  name       = "fan-${count.index}"
  vpc_id     = aws_vpc.core.id
  cidr_block = cidrsubnet(aws_vpc.core.cidr_block, 8, count.index)
}
`, fan)
	return map[string]string{"skew.ccl": b.String()}
}

// RandomDAG generates a random layered topology: a VPC, `n` subnets in a
// random dependency structure through route tables, and NIC/VM pairs
// attached at random. Deterministic under seed.
func RandomDAG(n int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`
resource "aws_vpc" "r" {
  name       = "rand"
  cidr_block = "10.0.0.0/16"
}
`)
	subnets := n / 2
	if subnets < 1 {
		subnets = 1
	}
	// cidrsubnet needs enough new bits for the subnet count; 8 keeps the
	// historical layout for small graphs, wider bits unlock scale runs.
	bits := 8
	for (1 << bits) < subnets {
		bits++
	}
	fmt.Fprintf(&b, `
resource "aws_subnet" "r" {
  count      = %d
  name       = "r-sub-${count.index}"
  vpc_id     = aws_vpc.r.id
  cidr_block = cidrsubnet(aws_vpc.r.cidr_block, %d, count.index)
}
`, subnets, bits)
	vms := n - subnets
	for i := 0; i < vms; i++ {
		sub := rng.Intn(subnets)
		fmt.Fprintf(&b, `
resource "aws_network_interface" "r%[1]d" {
  name      = "r-nic-%[1]d"
  subnet_id = aws_subnet.r[%[2]d].id
}

resource "aws_virtual_machine" "r%[1]d" {
  name    = "r-vm-%[1]d"
  nic_ids = [aws_network_interface.r%[1]d.id]
}
`, i, sub)
	}
	return map[string]string{"rand.ccl": b.String()}
}

// EditableDAG is RandomDAG(n, seed) with one input variable per VM spliced
// into that VM's name (rev_<i>, default "0", declared in vars.ccl), so
// setting one variable edits exactly one declaration and nothing else about
// the graph changes — the shape of an edit loop over a large estate. It
// returns the sources and the number of editable VMs.
func EditableDAG(n int, seed int64) (map[string]string, int) {
	files := RandomDAG(n, seed)
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

// TeamUpdate describes one team's concurrent update: the addresses it
// touches and the attribute value it writes.
type TeamUpdate struct {
	Team  string
	Addrs []string
}

// DisjointTeams generates `teams` update sets over a fleet of `perTeam`
// buckets each, with no overlap — the case per-resource locking
// parallelizes and a global lock needlessly serializes.
func DisjointTeams(teams, perTeam int) ([]TeamUpdate, map[string]string) {
	var b strings.Builder
	var updates []TeamUpdate
	for t := 0; t < teams; t++ {
		u := TeamUpdate{Team: fmt.Sprintf("team-%d", t)}
		for i := 0; i < perTeam; i++ {
			name := fmt.Sprintf("t%dres%d", t, i)
			fmt.Fprintf(&b, `
resource "aws_storage_bucket" "%s" {
  name = "%s"
}
`, name, name)
			u.Addrs = append(u.Addrs, "aws_storage_bucket."+name)
		}
		updates = append(updates, u)
	}
	return updates, map[string]string{"teams.ccl": b.String()}
}

// OverlappingTeams is DisjointTeams plus a shared hot resource every team
// also touches, to measure behaviour under genuine conflict.
func OverlappingTeams(teams, perTeam int) ([]TeamUpdate, map[string]string) {
	updates, files := DisjointTeams(teams, perTeam)
	files["shared.ccl"] = `
resource "aws_storage_bucket" "shared" {
  name = "shared-config"
}
`
	for i := range updates {
		updates[i].Addrs = append(updates[i].Addrs, "aws_storage_bucket.shared")
	}
	return updates, files
}

// Merge combines source maps (for composing workloads).
func Merge(files ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range files {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
