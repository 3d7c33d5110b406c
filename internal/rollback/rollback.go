// Package rollback plans state rollbacks (§3.4). Simply re-applying an old
// configuration is not a rollback: some modifications are not reversible in
// place (ForceNew attributes, deletions), so the planner performs
// reversibility analysis and produces a plan that reverts in place where
// possible and destroys-and-recreates only where necessary — minimizing
// redeployment, with the reliable identification of the plan happening
// *before* anything is touched. The plan's steps are also literal plan
// changes, which apply.Apply runs like any other plan.
package rollback

import (
	"context"
	"fmt"
	"sort"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/schema"
	"cloudless/internal/state"
)

// StepKind classifies a rollback step.
type StepKind int

// Step kinds.
const (
	// RevertInPlace updates mutable attributes back to the target values.
	RevertInPlace StepKind = iota
	// Recreate destroys the current resource and recreates it from the
	// target state (the irreversible-change path).
	Recreate
	// CreateMissing re-creates a resource present in the target but gone
	// from the current state.
	CreateMissing
	// DeleteExtra removes a resource absent from the target state.
	DeleteExtra
)

var stepNames = map[StepKind]string{
	RevertInPlace: "revert-in-place",
	Recreate:      "recreate",
	CreateMissing: "create-missing",
	DeleteExtra:   "delete-extra",
}

// String names the step kind.
func (k StepKind) String() string { return stepNames[k] }

// Step is one planned rollback operation.
type Step struct {
	Kind StepKind
	Addr string
	Type string
	// Attrs are the attributes to push (revert) or create with.
	Attrs map[string]eval.Value
	// Reason explains why this step has its kind, for the operator.
	Reason string
}

// Plan is a complete rollback plan.
type Plan struct {
	Steps []Step
	// Redeployments counts destroy+create operations — the quantity the
	// §3.4 design minimizes.
	Redeployments int
	// Reverts counts cheap in-place reverts.
	Reverts int
	// Changes are the steps, in order, as the literal plan changes the
	// applier runs: RevertInPlace is an update, Recreate a replace,
	// CreateMissing a create and DeleteExtra a delete. A create carries the
	// ID the resource had in the target, so references to it follow the
	// new one.
	Changes []*plan.Change
}

// Summary renders plan statistics.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%d steps: %d in-place reverts, %d redeployments",
		len(p.Steps), p.Reverts, p.Redeployments)
}

func (p *Plan) add(s Step, ch *plan.Change) {
	p.Steps = append(p.Steps, s)
	p.Changes = append(p.Changes, ch)
}

// Compute builds a rollback plan taking the infrastructure from current to
// target. It never touches the cloud: the plan is fully determined before
// any update is performed.
func Compute(current, target *state.State) *Plan {
	p := &Plan{}
	recreate := map[string]bool{}

	// Reference-aware comparison: when an address already carries a
	// different cloud ID than the snapshot recorded (an earlier — possibly
	// crashed — rollback recreated it), target attributes referencing the
	// old ID are compared against the live one. A reference that followed
	// the recreation is intact, not diverged.
	idMap := map[string]string{}
	for _, addr := range target.Addrs() {
		tgt := target.Get(addr)
		if cur := current.Get(addr); cur != nil && tgt.ID != "" && cur.ID != "" && cur.ID != tgt.ID {
			idMap[tgt.ID] = cur.ID
		}
	}

	// Pass 1: classify direct differences.
	kindOf := map[string]StepKind{}
	reason := map[string]string{}
	for _, addr := range target.Addrs() {
		tgt := target.Get(addr)
		cur := current.Get(addr)
		if cur == nil {
			kindOf[addr] = CreateMissing
			reason[addr] = "resource no longer exists"
			recreate[addr] = true
			continue
		}
		changed, forced := classifyDiff(tgt.Type, cur.Attrs, tgt.Attrs, idMap)
		switch {
		case len(changed) == 0:
			continue
		case len(forced) > 0:
			kindOf[addr] = Recreate
			reason[addr] = fmt.Sprintf("attributes %v cannot be reverted in place", forced)
			recreate[addr] = true
		default:
			kindOf[addr] = RevertInPlace
			reason[addr] = fmt.Sprintf("attributes %v can be updated in place", changed)
		}
	}
	for _, addr := range current.Addrs() {
		if target.Get(addr) == nil {
			kindOf[addr] = DeleteExtra
			reason[addr] = "resource is not part of the rollback target"
		}
	}

	// Pass 2: recreation cascades. When a resource is recreated its cloud
	// ID changes; dependents whose reference attributes are immutable must
	// be recreated too; mutable references become in-place reverts.
	changedCascade := true
	for changedCascade {
		changedCascade = false
		for _, addr := range target.Addrs() {
			if recreate[addr] {
				continue
			}
			tgt := target.Get(addr)
			for _, dep := range tgt.Dependencies {
				for recAddr := range recreate {
					if plan.ResourceAddrOf(recAddr) != dep {
						continue
					}
					if hasForceNewRef(tgt.Type) {
						kindOf[addr] = Recreate
						reason[addr] = fmt.Sprintf("depends on %s, which must be recreated, through an immutable reference", recAddr)
						recreate[addr] = true
						changedCascade = true
					} else if _, has := kindOf[addr]; !has {
						kindOf[addr] = RevertInPlace
						reason[addr] = fmt.Sprintf("reference to recreated %s must be repointed", recAddr)
					}
				}
			}
		}
	}

	// Emit steps for reading: deletes of extras, then recreates and
	// creates, then in-place reverts, each in address order. The applier
	// orders the changes by their dependencies.
	var deletes, creates, reverts []string
	for addr, kind := range kindOf {
		switch kind {
		case DeleteExtra:
			deletes = append(deletes, addr)
		case Recreate, CreateMissing:
			creates = append(creates, addr)
		case RevertInPlace:
			reverts = append(reverts, addr)
		}
	}
	sort.Strings(deletes)
	sort.Strings(creates)
	sort.Strings(reverts)

	for _, addr := range deletes {
		cur := current.Get(addr)
		p.add(Step{Kind: DeleteExtra, Addr: addr, Type: cur.Type, Reason: reason[addr]}, &plan.Change{
			Addr: addr, Action: plan.ActionDelete, Type: cur.Type, Region: cur.Region,
			ID: cur.ID, Before: cur.Attrs, Deps: cur.Dependencies,
		})
	}
	for _, addr := range creates {
		tgt := target.Get(addr)
		attrs := configurableAttrs(tgt.Type, tgt.Attrs)
		ch := &plan.Change{
			Addr: addr, Action: plan.ActionCreate, Type: tgt.Type, Region: tgt.Region,
			ID: tgt.ID, After: apply.RemapIDs(attrs, idMap), Deps: tgt.Dependencies,
		}
		if cur := current.Get(addr); cur != nil {
			ch.Action, ch.ID, ch.Before = plan.ActionReplace, cur.ID, cur.Attrs
		}
		p.add(Step{Kind: kindOf[addr], Addr: addr, Type: tgt.Type, Attrs: attrs, Reason: reason[addr]}, ch)
		p.Redeployments++
	}
	for _, addr := range reverts {
		tgt, cur := target.Get(addr), current.Get(addr)
		attrs := configurableAttrs(tgt.Type, tgt.Attrs)
		after := apply.RemapIDs(attrs, idMap)
		// Every target attribute is a candidate: a reference to a recreated
		// resource differs only once its new ID is known, and the applier
		// sends just what differs from the live values.
		names := make([]string, 0, len(after))
		for name := range after {
			names = append(names, name)
		}
		sort.Strings(names)
		p.add(Step{Kind: RevertInPlace, Addr: addr, Type: tgt.Type, Attrs: attrs, Reason: reason[addr]}, &plan.Change{
			Addr: addr, Action: plan.ActionUpdate, Type: tgt.Type, Region: cur.Region, ID: cur.ID,
			Before: cur.Attrs, After: after, ChangedAttrs: names, Deps: tgt.Dependencies,
		})
		p.Reverts++
	}
	return p
}

// Execute runs a rollback plan through the applier over current, the state
// it was computed from, and returns the resulting state. It fails unless
// every change ran.
func Execute(ctx context.Context, cl cloud.Interface, current *state.State, p *Plan, opts apply.Options) (*state.State, error) {
	ap, _ := plan.New(current, p.Changes) // a cycle fails the walk, which reports it
	res := apply.Apply(ctx, cl, ap, opts)
	err := res.Err()
	if err == nil && res.Applied < len(p.Changes) {
		err = fmt.Errorf("rollback: %d of %d changes did not run", len(p.Changes)-res.Applied, len(p.Changes))
	}
	return res.State, err
}

// classifyDiff returns changed configurable attrs and the subset that is
// ForceNew (irreversible in place). Target values are passed through idMap
// so references follow recreated resources' live IDs.
func classifyDiff(typ string, cur, tgt map[string]eval.Value, idMap map[string]string) (changed, forced []string) {
	rs, ok := schema.LookupResource(typ)
	for name, want := range apply.RemapIDs(tgt, idMap) {
		if ok {
			if a := rs.Attr(name); a != nil && a.Computed {
				continue
			}
		}
		have, exists := cur[name]
		if exists && have.Equal(want) {
			continue
		}
		changed = append(changed, name)
		if ok {
			if a := rs.Attr(name); a != nil && a.ForceNew {
				forced = append(forced, name)
			}
		}
	}
	sort.Strings(changed)
	sort.Strings(forced)
	return
}

// hasForceNewRef reports whether a type's reference attributes are ForceNew
// (so repointing them requires recreation).
func hasForceNewRef(typ string) bool {
	rs, ok := schema.LookupResource(typ)
	if !ok {
		return false
	}
	for _, a := range rs.Attrs {
		if a.Semantic.Kind == schema.SemResourceRef && a.ForceNew {
			return true
		}
	}
	return false
}

// configurableAttrs filters out computed attributes.
func configurableAttrs(typ string, attrs map[string]eval.Value) map[string]eval.Value {
	rs, ok := schema.LookupResource(typ)
	out := map[string]eval.Value{}
	for name, v := range attrs {
		if ok {
			if a := rs.Attr(name); a == nil || a.Computed {
				continue
			}
		}
		if v.IsNull() {
			continue
		}
		out[name] = v
	}
	return out
}
