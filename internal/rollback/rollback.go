// Package rollback plans and executes state rollbacks (§3.4). Simply
// re-applying an old configuration is not a rollback: some modifications
// are not reversible in place (ForceNew attributes, deletions), so the
// planner performs reversibility analysis and produces a plan that reverts
// in place where possible and destroys-and-recreates only where necessary —
// minimizing redeployment, with the reliable identification of the plan
// happening *before* anything is touched.
package rollback

import (
	"context"
	"fmt"
	"sort"

	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/graph"
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
}

// Summary renders plan statistics.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%d steps: %d in-place reverts, %d redeployments",
		len(p.Steps), p.Reverts, p.Redeployments)
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
					if resourceAddrOf(recAddr) != dep {
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

	// Emit steps in a safe order: deletes of extras first (reverse
	// dependency order), then recreates/creates in dependency order, then
	// in-place reverts.
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
	// Extras are deleted dependents-first (reverse dependency order, from
	// the current state's recorded dependencies).
	deletes = orderByDependencies(deletes, current)
	for i, j := 0, len(deletes)-1; i < j; i, j = i+1, j-1 {
		deletes[i], deletes[j] = deletes[j], deletes[i]
	}
	creates = orderByDependencies(creates, target)
	sort.Strings(reverts)

	for _, addr := range deletes {
		p.Steps = append(p.Steps, Step{Kind: DeleteExtra, Addr: addr,
			Type: current.Get(addr).Type, Reason: reason[addr]})
	}
	for _, addr := range creates {
		tgt := target.Get(addr)
		p.Steps = append(p.Steps, Step{Kind: kindOf[addr], Addr: addr, Type: tgt.Type,
			Attrs: configurableAttrs(tgt.Type, tgt.Attrs), Reason: reason[addr]})
		p.Redeployments++
	}
	for _, addr := range reverts {
		tgt := target.Get(addr)
		p.Steps = append(p.Steps, Step{Kind: RevertInPlace, Addr: addr, Type: tgt.Type,
			Attrs: configurableAttrs(tgt.Type, tgt.Attrs), Reason: reason[addr]})
		p.Reverts++
	}
	return p
}

// classifyDiff returns changed configurable attrs and the subset that is
// ForceNew (irreversible in place). Target values are passed through idMap
// so references follow recreated resources' live IDs.
func classifyDiff(typ string, cur, tgt map[string]eval.Value, idMap map[string]string) (changed, forced []string) {
	rs, ok := schema.LookupResource(typ)
	for name, want := range tgt {
		if ok {
			if a := rs.Attr(name); a != nil && a.Computed {
				continue
			}
		}
		want = remapValue(want, idMap)
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

func resourceAddrOf(addr string) string {
	for i := 0; i < len(addr); i++ {
		if addr[i] == '[' {
			return addr[:i]
		}
	}
	return addr
}

// orderByDependencies sorts addresses so dependencies precede dependents.
func orderByDependencies(addrs []string, st *state.State) []string {
	g := graph.New()
	inSet := map[string]bool{}
	for _, a := range addrs {
		g.AddNode(a)
		inSet[a] = true
	}
	for _, a := range addrs {
		rs := st.Get(a)
		if rs == nil {
			continue
		}
		for _, dep := range rs.Dependencies {
			for _, b := range addrs {
				if b != a && resourceAddrOf(b) == dep {
					_ = g.AddEdge(a, b)
				}
			}
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		sort.Strings(addrs)
		return addrs
	}
	return order
}

// ExecOptions configures Execute.
type ExecOptions struct {
	Principal string
	// Journal, when non-nil, makes the rollback crash-safe: intents are
	// durably recorded before the first cloud call and every op is framed by
	// begin/done records. A crashed rollback is reconciled with
	// apply.Recover and finished by re-computing the rollback plan from the
	// reconciled state.
	Journal *apply.Journal
}

// Execute runs a rollback plan against the cloud, rewriting references to
// recreated resources as their IDs change. Destruction happens for all
// recreated resources up front, dependents first, because real clouds (and
// the simulator) refuse to delete a resource that is still referenced.
// It returns the resulting state.
func Execute(ctx context.Context, cl cloud.Interface, current, target *state.State, p *Plan, principal string) (*state.State, error) {
	return ExecuteJournaled(ctx, cl, current, target, p, ExecOptions{Principal: principal})
}

// ExecuteJournaled is Execute with crash-safety options.
func ExecuteJournaled(ctx context.Context, cl cloud.Interface, current, target *state.State, p *Plan, opts ExecOptions) (*state.State, error) {
	principal := opts.Principal
	j := opts.Journal
	if j != nil {
		if err := j.LogIntents(planIntents(p, current)); err != nil {
			return current.Clone(), fmt.Errorf("rollback: journal intents: %w", err)
		}
	}
	out := current.Clone()
	remap := map[string]string{} // old cloud ID -> new cloud ID

	// Seed the remap from live reality: when an address already carries a
	// different cloud ID than the snapshot recorded (a previous — possibly
	// crashed — rollback recreated it), references in target attributes must
	// follow the live ID. In-run recreations overwrite these entries as they
	// happen.
	for _, addr := range target.Addrs() {
		tgt := target.Get(addr)
		if cur := current.Get(addr); cur != nil && tgt.ID != "" && cur.ID != "" && cur.ID != tgt.ID {
			remap[tgt.ID] = cur.ID
		}
	}

	del := func(addr, typ, id, phase string) error {
		if j != nil {
			if err := j.Begin(apply.OpRecord{Addr: addr, Action: "delete", Type: typ, ID: id}); err != nil {
				return err
			}
		}
		err := cl.Delete(ctx, typ, id, principal)
		if err != nil && !cloud.IsNotFound(err) {
			if j != nil && apply.DefinitiveFailure(err) {
				_ = j.Fail(addr, "delete", err)
			}
			return fmt.Errorf("rollback %s (%s): %w", addr, phase, err)
		}
		if j != nil {
			if err := j.Done(apply.OpRecord{Addr: addr, Action: "delete", Type: typ, ID: id}); err != nil {
				return err
			}
		}
		out.Remove(addr)
		return nil
	}

	// Destroy phase: recreated resources, dependents before dependencies
	// (the create-ordered step list reversed).
	for i := len(p.Steps) - 1; i >= 0; i-- {
		step := p.Steps[i]
		if step.Kind != Recreate {
			continue
		}
		cur := out.Get(step.Addr)
		if cur == nil {
			continue
		}
		if err := del(step.Addr, cur.Type, cur.ID, "destroy phase"); err != nil {
			return out, err
		}
	}

	for _, step := range p.Steps {
		switch step.Kind {
		case DeleteExtra:
			rs := out.Get(step.Addr)
			if rs == nil {
				continue
			}
			if err := del(step.Addr, rs.Type, rs.ID, "delete phase"); err != nil {
				return out, err
			}

		case Recreate, CreateMissing:
			tgtRS := target.Get(step.Addr)
			attrs := remapRefs(step.Attrs, remap)
			req := cloud.CreateRequest{
				Type: step.Type, Region: tgtRS.Region, Attrs: attrs, Principal: principal,
			}
			if j != nil {
				req.IdempotencyKey = j.IdemKey(step.Addr)
				if err := j.Begin(apply.OpRecord{Addr: step.Addr, Action: "create",
					Type: step.Type, Region: tgtRS.Region, IdemKey: req.IdempotencyKey,
					Attrs: apply.AttrsOut(attrs), Deps: tgtRS.Dependencies}); err != nil {
					return out, err
				}
			}
			created, err := cl.Create(ctx, req)
			if err != nil {
				if j != nil && apply.DefinitiveFailure(err) {
					_ = j.Fail(step.Addr, "create", err)
				}
				return out, fmt.Errorf("rollback %s (create phase): %w", step.Addr, err)
			}
			if tgtRS.ID != "" {
				remap[tgtRS.ID] = created.ID
			}
			if cur := current.Get(step.Addr); cur != nil && cur.ID != "" {
				remap[cur.ID] = created.ID
			}
			if j != nil {
				if err := j.Done(apply.OpRecord{Addr: step.Addr, Action: "create",
					Type: step.Type, Region: created.Region, ID: created.ID,
					Attrs: apply.AttrsOut(created.Attrs), Deps: tgtRS.Dependencies}); err != nil {
					return out, err
				}
			}
			out.Set(&state.ResourceState{
				Addr: step.Addr, Type: step.Type, ID: created.ID, Region: created.Region,
				Attrs: created.Attrs, Dependencies: tgtRS.Dependencies,
				CreatedAt: created.CreatedAt, UpdatedAt: created.UpdatedAt,
			})

		case RevertInPlace:
			rs := out.Get(step.Addr)
			if rs == nil {
				continue
			}
			attrs := remapRefs(step.Attrs, remap)
			// Only push attributes that actually differ from the live ones.
			delta := map[string]eval.Value{}
			for name, v := range attrs {
				if !rs.Attr(name).Equal(v) {
					delta[name] = v
				}
			}
			if len(delta) == 0 {
				continue
			}
			if j != nil {
				if err := j.Begin(apply.OpRecord{Addr: step.Addr, Action: "update",
					Type: step.Type, ID: rs.ID, Attrs: apply.AttrsOut(delta)}); err != nil {
					return out, err
				}
			}
			updated, err := cl.Update(ctx, cloud.UpdateRequest{
				Type: step.Type, ID: rs.ID, Attrs: delta, Principal: principal,
			})
			if err != nil {
				if j != nil && apply.DefinitiveFailure(err) {
					_ = j.Fail(step.Addr, "update", err)
				}
				return out, fmt.Errorf("rollback %s (revert phase): %w", step.Addr, err)
			}
			if j != nil {
				if err := j.Done(apply.OpRecord{Addr: step.Addr, Action: "update",
					Type: step.Type, ID: rs.ID, Attrs: apply.AttrsOut(updated.Attrs)}); err != nil {
					return out, err
				}
			}
			cp := *rs
			cp.Attrs = updated.Attrs
			out.Set(&cp)
		}
	}
	return out, nil
}

// planIntents journals what the rollback is about to do, so recovery can
// adopt orphaned recreations and the operator can see what a crashed
// rollback was attempting.
func planIntents(p *Plan, current *state.State) []apply.Intent {
	intents := make([]apply.Intent, 0, len(p.Steps))
	for _, step := range p.Steps {
		in := apply.Intent{Addr: step.Addr, Type: step.Type}
		switch step.Kind {
		case DeleteExtra:
			in.Action = "delete"
			if rs := current.Get(step.Addr); rs != nil {
				in.ID = rs.ID
				in.Region = rs.Region
			}
		case Recreate:
			in.Action = "replace"
			if rs := current.Get(step.Addr); rs != nil {
				in.ID = rs.ID
				in.Region = rs.Region
			}
		case CreateMissing:
			in.Action = "create"
		case RevertInPlace:
			in.Action = "update"
			if rs := current.Get(step.Addr); rs != nil {
				in.ID = rs.ID
				in.Region = rs.Region
			}
		}
		if v, ok := step.Attrs["name"]; ok && !v.IsNull() && v.Kind() == eval.KindString {
			in.Name = v.AsString()
		}
		intents = append(intents, in)
	}
	return intents
}

// remapRefs substitutes recreated resources' old IDs with their new IDs in
// string and list-of-string attribute values.
func remapRefs(attrs map[string]eval.Value, remap map[string]string) map[string]eval.Value {
	if len(remap) == 0 {
		return attrs
	}
	out := make(map[string]eval.Value, len(attrs))
	for name, v := range attrs {
		out[name] = remapValue(v, remap)
	}
	return out
}

func remapValue(v eval.Value, remap map[string]string) eval.Value {
	switch v.Kind() {
	case eval.KindString:
		if newID, ok := remap[v.AsString()]; ok {
			return eval.String(newID)
		}
		return v
	case eval.KindList:
		items := make([]eval.Value, len(v.AsList()))
		for i, e := range v.AsList() {
			items[i] = remapValue(e, remap)
		}
		return eval.ListOf(items)
	default:
		return v
	}
}
