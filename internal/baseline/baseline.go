// Package baseline implements the behaviour of today's IaC engines as the
// paper describes it (§2.2, §3.3, §3.4), as the comparison point for every
// experiment:
//
//   - every plan re-queries all cloud-level resource state and recomputes
//     the deployment plan from the ground up — even for a single-resource
//     delta ("expensive queries on all cloud-level resource state and
//     recomputation of the deployment plan from the ground up");
//   - the apply walk is a best-effort FIFO graph walk with no cost model;
//   - a single lock serializes the entire infrastructure for modifications
//     at any scale;
//   - validation stops at the IaC level (structure and types); cloud-level
//     constraints surface only as deploy-time errors.
//
// The engine reuses the same planner/applier machinery in its baseline
// configuration, so measured differences come from algorithmic choices, not
// implementation quality.
package baseline

import (
	"context"
	"fmt"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
	"cloudless/internal/schema"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/validate"
)

// Engine is a Terraform-like IaC engine.
type Engine struct {
	Cloud cloud.Interface
	// DB guards the golden state behind a single global lock.
	DB *statedb.DB
	// Concurrency matches the classic default of 10.
	Concurrency int
}

// New builds a baseline engine over a cloud and initial state.
func New(cl cloud.Interface, initial *state.State) *Engine {
	return &Engine{
		Cloud:       cl,
		DB:          statedb.Open(initial, statedb.GlobalLock),
		Concurrency: 10,
	}
}

// Validate performs IaC-level validation only: schema structure and value
// types, without the cloud-level knowledge base. (An empty knowledge base
// models "the IaC-level compiler is not fully aware of the cloud-level
// expectations".)
func (e *Engine) Validate(ex *config.Expansion) *validate.Result {
	empty := schema.NewKnowledgeBase()
	full := validate.Validate(ex, empty)
	// Even semantic reference typing is beyond today's engines: drop
	// findings from the semantic type system, keeping only structural ones.
	out := &validate.Result{}
	for _, f := range full.Findings {
		if len(f.RuleID) >= 7 && f.RuleID[:7] == "schema/" {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
}

// Plan computes a full plan: complete refresh of every state entry, full
// re-evaluation of every instance.
func (e *Engine) Plan(ctx context.Context, ex *config.Expansion) (*plan.Plan, hcl.Diagnostics) {
	return plan.Compute(ctx, ex, e.DB.Snapshot(), plan.Options{
		Refresh: true,
		Cloud:   e.Cloud,
	})
}

// Apply executes a plan under the global lock with the FIFO scheduler.
func (e *Engine) Apply(ctx context.Context, p *plan.Plan) (*apply.Result, error) {
	txn := e.DB.Begin("baseline apply")
	// The global lock covers everything; the address list is irrelevant in
	// GlobalLock mode but must be non-empty.
	if err := txn.Lock(ctx, "<all>"); err != nil {
		return nil, fmt.Errorf("baseline: acquire global lock: %w", err)
	}
	defer txn.Abort()

	res := apply.Apply(ctx, e.Cloud, p, apply.Options{
		Concurrency: e.Concurrency,
		Scheduler:   apply.FIFOScheduler,
		Principal:   "baseline",
	})
	// Publish the resulting state wholesale.
	for _, addr := range res.State.Addrs() {
		if err := txn.Put(res.State.Get(addr)); err != nil {
			return res, err
		}
	}
	for _, addr := range e.DB.Snapshot().Addrs() {
		if res.State.Get(addr) == nil {
			if err := txn.Delete(addr); err != nil {
				return res, err
			}
		}
	}
	if _, err := txn.Commit(); err != nil {
		return res, err
	}
	return res, res.Err()
}

// PlanAndApply is the end-to-end baseline cycle.
func (e *Engine) PlanAndApply(ctx context.Context, ex *config.Expansion) (*apply.Result, *plan.Plan, error) {
	p, diags := e.Plan(ctx, ex)
	if diags.HasErrors() {
		return nil, p, diags
	}
	res, err := e.Apply(ctx, p)
	return res, p, err
}
