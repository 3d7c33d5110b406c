// Crash recovery: reconciling a crashed apply's journal against the cloud.
//
// The recovery state machine, per journaled op:
//
//	no begin        → the op never started; the follow-up re-plan redoes it.
//	begin + done    → complete; fold the recorded result into state.
//	begin + fail    → the cloud definitively rejected it; nothing mutated.
//	begin only      → IN DOUBT: the process died between issuing the call
//	                  and recording the response. Re-drive it idempotently —
//	                  creates retry under their original idempotency key (the
//	                  cloud returns the original resource if the first attempt
//	                  landed), updates re-send the recorded delta, deletes
//	                  tolerate 404.
//
// After the per-op pass, an orphan sweep cross-checks the cloud activity log
// (§3.5's log-native observation channel): any resource created by our
// principal that neither the reconciled state nor the journal accounts for
// is adopted into state when it matches a journaled intent (type, region,
// name), and deleted otherwise. Every step is idempotent, so a crash during
// recovery itself is recovered by running recovery again.
package apply

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cloudless/internal/cloud"
	evbus "cloudless/internal/events"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/state"
)

// RecoverReport summarizes what recovery found and did.
type RecoverReport struct {
	JournalID string `json:"journal_id"`
	Kind      string `json:"kind"`
	// Confirmed counts ops the journal proved complete (done records).
	Confirmed int `json:"confirmed"`
	// Resumed counts in-doubt ops re-driven to completion.
	Resumed int `json:"resumed"`
	// OrphansAdopted / OrphansDeleted list cloud IDs the sweep reconciled.
	OrphansAdopted []string `json:"orphans_adopted,omitempty"`
	OrphansDeleted []string `json:"orphans_deleted,omitempty"`
	// Errors maps addresses (or cloud IDs, for sweep failures) to what went
	// wrong; the reconciled state is still valid for everything else.
	Errors map[string]error `json:"-"`
	// Elapsed is wall-clock recovery time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Err folds recovery failures into one error.
func (r *RecoverReport) Err() error {
	for key, err := range r.Errors {
		return fmt.Errorf("recover %s: %w", key, err)
	}
	return nil
}

// Recover reconciles a crashed run's journal against the cloud, returning
// the reconciled state (base plus everything the crashed run is proven or
// re-driven to have done). The caller commits that state and then re-plans:
// ops the crashed run never started become ordinary plan changes.
func Recover(ctx context.Context, cl cloud.Interface, js *JournalState,
	base *state.State, opts Options) (*state.State, *RecoverReport, error) {

	o := (&opts).withDefaults()
	start := time.Now()
	cl = provider.New(cl, provider.Options{MaxRetries: o.MaxRetries, RetryBase: o.RetryBase})
	// Recovery reasons about what is actually in the cloud; never serve it
	// from a warm read cache.
	ctx = provider.WithFresh(ctx)

	rep := &RecoverReport{JournalID: js.Meta.ID, Kind: js.Meta.Kind, Errors: map[string]error{}}
	st := base.Clone()

	bus := evbus.FromContext(ctx)
	bus.Publish(evbus.Event{Kind: "recover.start", Run: js.Meta.ID,
		Action: js.Meta.Kind, N: int64(len(js.Intents))})

	for i := range js.Intents {
		in := &js.Intents[i]
		ops := js.Ops[in.Addr]
		if ops == nil || ops.Begin == nil {
			continue // never started; the re-plan will handle it
		}
		if ops.Done != nil {
			applyDoneRecord(st, ops.Done)
			rep.Confirmed++
			bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
				Addr: in.Addr, Type: in.Type, Action: "confirmed"})
			continue
		}
		if ops.FailError != "" {
			continue // definitively rejected, nothing mutated
		}
		if err := redriveOp(ctx, cl, st, js, ops.Begin, o); err != nil {
			rep.Errors[in.Addr] = err
			bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
				Addr: in.Addr, Type: in.Type, Action: "failed", Err: err.Error()})
			continue
		}
		rep.Resumed++
		bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
			Addr: in.Addr, Type: in.Type, Action: "resumed"})
	}

	err := sweepOrphans(ctx, cl, st, js, o, rep)
	rep.Elapsed = time.Since(start)
	bus.Publish(evbus.Event{Kind: "recover.finish", Run: js.Meta.ID,
		N: int64(rep.Confirmed + rep.Resumed), Ms: durMillis(rep.Elapsed)})
	if err != nil {
		return st, rep, err
	}
	return st, rep, nil
}

// applyDoneRecord folds a completed op's recorded result into state.
func applyDoneRecord(st *state.State, done *OpRecord) {
	if done.Action == plan.ActionDelete.String() {
		st.Remove(done.Addr)
		return
	}
	now := time.Now()
	st.Set(&state.ResourceState{
		Addr: done.Addr, Type: done.Type, ID: done.ID, Region: done.Region,
		Attrs: AttrsIn(done.Attrs), Dependencies: done.Deps,
		CreatedAt: now, UpdatedAt: now,
	})
}

// redriveOp idempotently re-executes an in-doubt op.
func redriveOp(ctx context.Context, cl cloud.Interface, st *state.State,
	js *JournalState, begin *OpRecord, o Options) error {

	switch begin.Action {
	case plan.ActionDelete.String():
		if err := cl.Delete(ctx, begin.Type, begin.ID, o.Principal); err != nil && !cloud.IsNotFound(err) {
			return err
		}
		st.Remove(begin.Addr)
		return nil

	case plan.ActionCreate.String(), plan.ActionReplace.String():
		// A replace journals as a delete op and then a create op; journals
		// written before that recorded it as one "replace" op.
		if begin.Action == plan.ActionReplace.String() && begin.ID != "" {
			if err := cl.Delete(ctx, begin.Type, begin.ID, o.Principal); err != nil && !cloud.IsNotFound(err) {
				return err
			}
		}
		// The original idempotency key makes this safe: if the crashed run's
		// create landed, the cloud hands back that resource; if it never
		// landed, this provisions it.
		res, err := cl.Create(ctx, cloud.CreateRequest{
			Type: begin.Type, Region: begin.Region, Attrs: AttrsIn(begin.Attrs),
			Principal: o.Principal, IdempotencyKey: begin.IdemKey,
		})
		if err != nil {
			return err
		}
		setFromResource(st, begin, res)
		return nil

	case plan.ActionUpdate.String():
		var res *cloud.Resource
		var err error
		if len(begin.Attrs) == 0 {
			res, err = cl.Get(ctx, begin.Type, begin.ID)
		} else {
			// Re-sending the recorded delta is idempotent: attribute writes
			// are absolute values, not increments.
			res, err = cl.Update(ctx, cloud.UpdateRequest{
				Type: begin.Type, ID: begin.ID, Attrs: AttrsIn(begin.Attrs),
				Principal: o.Principal,
			})
		}
		if err != nil {
			if cloud.IsNotFound(err) {
				// The target vanished mid-flight; drop it from state and let
				// the re-plan recreate it.
				st.Remove(begin.Addr)
				return nil
			}
			return err
		}
		setFromResource(st, begin, res)
		return nil

	default:
		return nil
	}
}

func setFromResource(st *state.State, begin *OpRecord, res *cloud.Resource) {
	now := time.Now()
	deps := begin.Deps
	if prev := st.Get(begin.Addr); prev != nil && len(deps) == 0 {
		deps = prev.Dependencies
	}
	st.Set(&state.ResourceState{
		Addr: begin.Addr, Type: res.Type, ID: res.ID, Region: res.Region,
		Attrs: res.Attrs, Dependencies: deps,
		CreatedAt: now, UpdatedAt: now,
	})
}

// sweepOrphans cross-checks the activity log for resources our principal
// created that neither the reconciled state nor the journal accounts for.
// A full-log scan is safe here: resources from earlier healthy applies are
// already in state and skipped by the ID check.
func sweepOrphans(ctx context.Context, cl cloud.Interface, st *state.State,
	js *JournalState, o Options, rep *RecoverReport) error {

	events, err := cl.Activity(ctx, 0)
	if err != nil {
		return fmt.Errorf("recover: read activity log: %w", err)
	}

	// Alive-and-ours candidates: created by our principal, no later delete.
	candidates := map[string]cloud.Event{}
	for _, ev := range events {
		switch ev.Op {
		case cloud.OpCreate:
			if ev.Principal == o.Principal {
				candidates[ev.ID] = ev
			}
		case cloud.OpDelete:
			delete(candidates, ev.ID)
		}
	}
	for id := range candidates {
		if st.ByID(id) != nil {
			delete(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return nil
	}

	// Later-created first, so dependency-violating deletes cannot happen
	// (a dependent is always newer than what it references).
	ordered := make([]cloud.Event, 0, len(candidates))
	for _, ev := range candidates {
		ordered = append(ordered, ev)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq > ordered[j].Seq })

	for _, ev := range ordered {
		res, err := cl.Get(ctx, ev.Type, ev.ID)
		if cloud.IsNotFound(err) {
			continue // already gone
		}
		if err != nil {
			rep.Errors[ev.ID] = err
			continue
		}
		if addr := matchIntent(js, st, res); addr != "" {
			// The plan wanted exactly this resource: adopt it instead of
			// destroying work the crashed run already paid for.
			now := time.Now()
			var deps []string
			if in := js.IntentFor(addr); in != nil {
				deps = in.Deps
			}
			st.Set(&state.ResourceState{
				Addr: addr, Type: res.Type, ID: res.ID, Region: res.Region,
				Attrs: res.Attrs, Dependencies: deps,
				CreatedAt: now, UpdatedAt: now,
			})
			rep.OrphansAdopted = append(rep.OrphansAdopted, res.ID)
			evbus.FromContext(ctx).Publish(evbus.Event{Kind: "recover.op",
				Run: js.Meta.ID, Addr: addr, Type: res.Type, ID: res.ID, Action: "adopted"})
			continue
		}
		if err := cl.Delete(ctx, res.Type, res.ID, o.Principal); err != nil && !cloud.IsNotFound(err) {
			rep.Errors[res.ID] = err
			continue
		}
		rep.OrphansDeleted = append(rep.OrphansDeleted, res.ID)
		evbus.FromContext(ctx).Publish(evbus.Event{Kind: "recover.op",
			Run: js.Meta.ID, Type: res.Type, ID: res.ID, Action: "deleted"})
	}
	return nil
}

// matchIntent finds an unclaimed create/replace intent that describes the
// orphan: same type and region, and the same planned name when one was
// journaled. Returns the address to adopt under, or "".
func matchIntent(js *JournalState, st *state.State, res *cloud.Resource) string {
	name := ""
	if v := res.Attr("name"); !v.IsNull() {
		name = v.AsString()
	}
	for i := range js.Intents {
		in := &js.Intents[i]
		if in.Action != plan.ActionCreate.String() && in.Action != plan.ActionReplace.String() {
			continue
		}
		if in.Type != res.Type || (in.Region != "" && in.Region != res.Region) {
			continue
		}
		if in.Name != "" && in.Name != name {
			continue
		}
		if existing := st.Get(in.Addr); existing != nil && existing.ID != res.ID {
			continue // address already satisfied by another resource
		}
		return in.Addr
	}
	return ""
}
