// Package rollback plans state rollbacks (§3.4). Simply re-applying an old
// configuration is not a rollback: some modifications are not reversible in
// place (ForceNew attributes, deletions), so the planner performs
// reversibility analysis and produces a plan that reverts in place where
// possible and destroys-and-recreates only where necessary — minimizing
// redeployment, with the reliable identification of the plan happening
// *before* anything is touched. The plan is a literal plan.Plan, which
// apply.Apply runs like any other.
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

// Compute builds the plan taking the infrastructure from current to target.
// It never touches the cloud: the plan is fully determined before any update
// is performed.
//
// An address in both states is an update when its configurable attributes
// differ only in mutable ones, a replace when a ForceNew one differs, and a
// no-op otherwise; an address only in target is a create, one only in
// current a delete. A create or replace gives the resource a new cloud ID,
// and the change carries the old one so the applier repoints references to
// it. That cascades per reference, as a planner replace does: a dependent
// whose ForceNew attribute holds a recreated ID is replaced too, and one
// that holds it only in mutable attributes is updated in place.
func Compute(current, target *state.State) *plan.Plan {
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

	var changes []*plan.Change
	recreated := map[string]bool{} // the cloud IDs the created and replaced resources give up
	for _, addr := range target.Addrs() {
		tgt, cur := target.Get(addr), current.Get(addr)
		ch := &plan.Change{
			Addr: addr, Action: plan.ActionCreate, Type: tgt.Type, Region: tgt.Region, ID: tgt.ID,
			After: apply.RemapIDs(configurableAttrs(tgt.Type, tgt.Attrs), idMap), Deps: tgt.Dependencies,
		}
		if cur != nil {
			ch.ID, ch.Before = cur.ID, cur.Attrs
			ch.ChangedAttrs, ch.ForcedBy = classifyDiff(tgt.Type, cur.Attrs, ch.After)
			switch {
			case len(ch.ForcedBy) > 0:
				ch.Action = plan.ActionReplace
			case len(ch.ChangedAttrs) > 0:
				ch.Action = plan.ActionUpdate
			default:
				ch.Action = plan.ActionNoop
			}
		}
		if (ch.Action == plan.ActionCreate || ch.Action == plan.ActionReplace) && ch.ID != "" {
			recreated[ch.ID] = true
		}
		changes = append(changes, ch)
	}

	// Recreation cascades through ForceNew references until no new
	// replace appears; mutable references to a recreated ID then become
	// in-place updates that repoint them.
	for cascaded := true; cascaded; {
		cascaded = false
		for _, ch := range changes {
			if ch.Action != plan.ActionUpdate && ch.Action != plan.ActionNoop {
				continue
			}
			if forced, _ := refsTo(ch, recreated); len(forced) > 0 {
				ch.Action, ch.ForcedBy = plan.ActionReplace, forced
				ch.ChangedAttrs = union(ch.ChangedAttrs, forced)
				recreated[ch.ID] = true
				cascaded = true
			}
		}
	}
	for _, ch := range changes {
		if ch.Action != plan.ActionUpdate && ch.Action != plan.ActionNoop {
			continue
		}
		if _, repointed := refsTo(ch, recreated); len(repointed) > 0 {
			ch.Action, ch.ChangedAttrs = plan.ActionUpdate, union(ch.ChangedAttrs, repointed)
		}
	}

	for _, addr := range current.Addrs() {
		if target.Get(addr) == nil {
			cur := current.Get(addr)
			changes = append(changes, &plan.Change{
				Addr: addr, Action: plan.ActionDelete, Type: cur.Type, Region: cur.Region,
				ID: cur.ID, Before: cur.Attrs, Deps: cur.Dependencies,
			})
		}
	}
	p, _ := plan.New(current, changes) // a cycle fails the walk, which reports it
	return p
}

// Execute runs a rollback plan through the applier and returns the
// resulting state. It fails unless every change ran.
func Execute(ctx context.Context, cl cloud.Interface, p *plan.Plan, opts apply.Options) (*state.State, error) {
	res := apply.Apply(ctx, cl, p, opts)
	err := res.Err()
	if n := p.PendingCount(); err == nil && res.Applied < n {
		err = fmt.Errorf("rollback: %d of %d changes did not run", n-res.Applied, n)
	}
	return res.State, err
}

// classifyDiff returns the attributes of after that differ from cur and the
// subset that is ForceNew (irreversible in place), each sorted.
func classifyDiff(typ string, cur, after map[string]eval.Value) (changed, forced []string) {
	for name, want := range after {
		if have, exists := cur[name]; exists && have.Equal(want) {
			continue
		}
		changed = append(changed, name)
		if isForceNew(typ, name) {
			forced = append(forced, name)
		}
	}
	sort.Strings(changed)
	sort.Strings(forced)
	return
}

// refsTo returns the attributes of ch.After that hold one of ids, alone or
// in a list, split into the ForceNew ones and the others, each sorted.
func refsTo(ch *plan.Change, ids map[string]bool) (forced, mutable []string) {
	for name, v := range ch.After {
		items := []eval.Value{v}
		if v.Kind() == eval.KindList {
			items = v.AsList()
		}
		for _, item := range items {
			if item.Kind() != eval.KindString || !ids[item.AsString()] {
				continue
			}
			if isForceNew(ch.Type, name) {
				forced = append(forced, name)
			} else {
				mutable = append(mutable, name)
			}
			break
		}
	}
	sort.Strings(forced)
	sort.Strings(mutable)
	return
}

func isForceNew(typ, name string) bool {
	rs, ok := schema.LookupResource(typ)
	if !ok {
		return false
	}
	a := rs.Attr(name)
	return a != nil && a.ForceNew
}

// union merges two name lists into one sorted list without repeats.
func union(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range append(append([]string(nil), a...), b...) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
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
