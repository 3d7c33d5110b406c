// Quickstart: the Cloudless paper's Figure 2 program, end to end.
//
// The program declares a data source, a variable, a network interface, and
// a virtual machine (plus the VPC/subnet substrate the NIC needs). We
// validate it, plan it, apply it against the in-process cloud simulator,
// and read the outputs.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	cloudless "cloudless"
	"cloudless/internal/cloud"
)

// figure2 is the paper's example, extended with the subnet/VPC substrate a
// NIC requires in any real cloud.
const figure2 = `
/* Simplified Terraform code snippet (paper Figure 2) */

data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_vpc" "main" {
  name       = "quickstart"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "main" {
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
}

resource "aws_network_interface" "n1" {
  name      = "example-nic"
  region    = data.aws_region.current.name
  subnet_id = aws_subnet.main.id
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}

output "vm_id"      { value = aws_virtual_machine.vm1.id }
output "private_ip" { value = aws_virtual_machine.vm1.private_ip }
`

func main() {
	ctx := context.Background()

	// An in-process simulated cloud with a fast latency model.
	opts := cloud.DefaultOptions()
	opts.TimeScale = 0.0005 // 90s VM create -> ~45ms
	sim := cloud.NewSim(opts)

	stack, err := cloudless.Open(cloudless.Options{
		Sources: map[string]string{"main.ccl": figure2},
		Cloud:   sim,
		Vars:    map[string]any{"vmName": "cloudless-demo"},
	})
	if err != nil {
		log.Fatalf("open: %s", err)
	}

	// 1. Validate: semantic types + cloud-level constraints, before any
	//    API call.
	if res := stack.Validate(); res.HasErrors() {
		for _, f := range res.Errors() {
			fmt.Println(f.Error())
		}
		log.Fatal("validation failed")
	}
	fmt.Println("✓ validated: no semantic or cloud-level violations")

	// 2. Plan.
	p, err := stack.Plan(ctx)
	if err != nil {
		log.Fatalf("plan: %s", err)
	}
	fmt.Printf("✓ plan: %s\n", p.Summary())

	// 3. Apply (critical-path-first, the only order the engine runs).
	res, diagnoses, err := stack.Apply(ctx, p, cloudless.ApplyOptions{})
	for _, d := range diagnoses {
		fmt.Print(d.String())
	}
	if err != nil {
		log.Fatalf("apply: %s", err)
	}
	fmt.Printf("✓ applied %d resources in %s\n", res.Applied, res.Elapsed.Round(1e6))

	// 4. Outputs.
	for k, v := range stack.Outputs() {
		fmt.Printf("  %s = %v\n", k, v)
	}

	// 5. A second plan is a no-op: the infrastructure matches the program.
	p2, err := stack.Plan(ctx)
	if err != nil {
		log.Fatalf("replan: %s", err)
	}
	fmt.Printf("✓ replan: %s\n", p2.Summary())
}
