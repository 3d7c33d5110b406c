package policy

import (
	"fmt"

	"cloudless/internal/drift"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
)

// Engine evaluates a set of policies against lifecycle observations.
type Engine struct {
	policies []*Policy
	// Vars holds the current variable values the controller manages;
	// scale/set_variable decisions read and write here.
	Vars map[string]eval.Value
}

// NewEngine builds an engine over policies.
func NewEngine(policies []*Policy) *Engine {
	return &Engine{policies: policies, Vars: map[string]eval.Value{}}
}

// Policies returns the engine's policies.
func (e *Engine) Policies() []*Policy { return e.policies }

// EvaluatePlan runs plan-phase policies against a computed plan. Returned
// deny decisions mean the plan must not be applied.
func (e *Engine) EvaluatePlan(p *plan.Plan) ([]Decision, hcl.Diagnostics) {
	return e.run(PhasePlan, "plan", func() eval.Value { return PlanObservations(p) })
}

// EvaluateDrift runs drift-phase policies against a drift report.
func (e *Engine) EvaluateDrift(rep *drift.Report) ([]Decision, hcl.Diagnostics) {
	return e.run(PhaseDrift, "drift", func() eval.Value { return DriftObservations(rep) })
}

// Observe runs operate-phase policies against a metric sample set, e.g.
// {"vpn_utilization": 0.92, "nic_load": 0.4}. This is where autoscaling
// policies over arbitrary metrics live — including metrics today's cloud
// autoscalers do not expose.
func (e *Engine) Observe(metrics map[string]eval.Value) ([]Decision, hcl.Diagnostics) {
	return e.run(PhaseOperate, "metric", func() eval.Value { return eval.Object(metrics) })
}

// run evaluates the policies of one phase. Their scope — the observation
// object under its name, plus var — is built for the first policy that
// needs it, so a phase no loaded policy listens to costs no observation
// (PlanObservations prices every change of the plan).
func (e *Engine) run(phase Phase, name string, observe func() eval.Value) ([]Decision, hcl.Diagnostics) {
	var out []Decision
	var diags hcl.Diagnostics
	var scope *eval.Context
	for _, p := range e.policies {
		if p.Phase != phase || p.When == nil {
			continue
		}
		if scope == nil {
			scope = eval.NewContext()
			scope.Variables[name] = observe()
			scope.Variables["var"] = eval.Object(e.Vars)
		}
		cond, d := eval.Evaluate(p.When, scope)
		if d.HasErrors() {
			diags = diags.Extend(d)
			continue
		}
		fire, err := eval.Truthiness(cond)
		if err != nil {
			diags = diags.Append(hcl.Errorf(p.When.Range(), "policy %q condition: %s", p.Name, err))
			continue
		}
		if !fire {
			continue
		}
		for _, a := range p.Actions {
			dec, d := e.decide(p, a, scope)
			diags = diags.Extend(d)
			if dec != nil {
				out = append(out, *dec)
			}
		}
	}
	return out, diags
}

func (e *Engine) decide(p *Policy, a Action, scope *eval.Context) (*Decision, hcl.Diagnostics) {
	var diags hcl.Diagnostics
	dec := &Decision{Policy: p.Name, Kind: a.Kind}
	switch a.Kind {
	case ActionDeny, ActionNotify:
		dec.Message = p.Name
		if a.Message != nil {
			v, d := eval.Evaluate(a.Message, scope)
			diags = diags.Extend(d)
			if !d.HasErrors() {
				if s, err := eval.ToStringValue(v); err == nil && s.IsKnown() {
					dec.Message = s.AsString()
				}
			}
		}
	case ActionSetVariable:
		v, d := eval.Evaluate(a.Value, scope)
		if d.HasErrors() {
			return nil, diags.Extend(d)
		}
		dec.Variable = a.Variable
		dec.NewValue = v
		e.Vars[a.Variable] = v
	case ActionScale:
		cur, ok := e.Vars[a.Variable]
		if !ok || cur.Kind() != eval.KindNumber {
			return nil, diags.Append(hcl.Errorf(p.DeclRange,
				"policy %q: scale target %q is not a managed numeric variable", p.Name, a.Variable))
		}
		next := cur.AsNumber() + a.Delta
		if a.HasMin && next < a.Min {
			next = a.Min
		}
		if a.HasMax && next > a.Max {
			next = a.Max
		}
		if next == cur.AsNumber() {
			return nil, diags // clamped to no-op: no decision
		}
		dec.Variable = a.Variable
		dec.NewValue = eval.Number(next)
		dec.Message = fmt.Sprintf("scale %s: %s -> %s", a.Variable, cur, dec.NewValue)
		e.Vars[a.Variable] = dec.NewValue
	case ActionRevert, ActionAdopt:
		dec.Message = a.Kind.String() + " drift"
	}
	return dec, diags
}

// Denied reports whether any decision is a deny, with its message.
func Denied(decisions []Decision) (bool, string) {
	for _, d := range decisions {
		if d.Kind == ActionDeny {
			return true, d.Message
		}
	}
	return false, ""
}

// PlanObservations exposes a plan as an observation object: counts, the
// estimated monthly cost delta, and per-type resource counts.
func PlanObservations(p *plan.Plan) eval.Value {
	byType := map[string]int{}
	for _, ch := range p.Changes {
		if ch.Action == plan.ActionCreate || ch.Action == plan.ActionReplace || ch.Action == plan.ActionUpdate || ch.Action == plan.ActionNoop {
			byType[ch.Type]++
		}
	}
	counts := map[string]eval.Value{}
	for t, n := range byType {
		counts[t] = eval.Int(n)
	}
	return eval.Object(map[string]eval.Value{
		"creates":         eval.Int(p.Creates),
		"updates":         eval.Int(p.Updates),
		"replaces":        eval.Int(p.Replaces),
		"deletes":         eval.Int(p.Deletes),
		"pending":         eval.Int(p.PendingCount()),
		"monthly_cost":    eval.Number(EstimateMonthlyCost(p)),
		"resource_counts": eval.Object(counts),
	})
}

// DriftObservations exposes a drift report as an observation object.
func DriftObservations(rep *drift.Report) eval.Value {
	kinds := map[string]int{}
	actors := map[string]bool{}
	for _, it := range rep.Items {
		kinds[it.Kind.String()]++
		if it.Actor != "" {
			actors[it.Actor] = true
		}
	}
	actorList := make([]string, 0, len(actors))
	for a := range actors {
		actorList = append(actorList, a)
	}
	return eval.Object(map[string]eval.Value{
		"total":     eval.Int(len(rep.Items)),
		"modified":  eval.Int(kinds["modified"]),
		"deleted":   eval.Int(kinds["deleted"]),
		"unmanaged": eval.Int(kinds["unmanaged"]),
		"actors":    eval.Strings(actorList...),
	})
}
