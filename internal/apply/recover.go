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
// That is all recovery reads: the journal, and the cloud only for the ops it
// re-drives. A begin is durable before its call goes out, so no cloud
// mutation the run made escapes the journal, and a create re-driven under
// its original key cannot land twice. Every step is idempotent, so a crash
// during recovery itself is recovered by running recovery again.
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
	// Errors maps addresses to what went wrong; the reconciled state is
	// still valid for everything else.
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
	base *state.State, opts Options) (*state.State, *RecoverReport) {

	o := (&opts).withDefaults()
	start := time.Now()
	cl = provider.New(cl, provider.Options{MaxRetries: o.MaxRetries, RetryBase: o.RetryBase})
	// Recovery reasons about what is actually in the cloud; never serve it
	// from a warm read cache.
	ctx = provider.WithFresh(ctx)

	rep := &RecoverReport{JournalID: js.Meta.ID, Kind: js.Meta.Kind, Errors: map[string]error{}}
	st := base.Clone()

	bus := evbus.FromContext(ctx)
	addrs := make([]string, 0, len(js.Ops))
	for addr := range js.Ops {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	bus.Publish(evbus.Event{Kind: "recover.start", Run: js.Meta.ID,
		Action: js.Meta.Kind, N: int64(len(addrs))})

	for _, addr := range addrs {
		ops := js.Ops[addr]
		if ops.Begin == nil {
			continue // a done or fail with no begin: nothing was sent
		}
		typ := ops.Begin.Type
		if ops.Done != nil {
			applyDoneRecord(st, ops.Done)
			rep.Confirmed++
			bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
				Addr: addr, Type: typ, Action: "confirmed"})
			continue
		}
		if ops.FailError != "" {
			continue // definitively rejected, nothing mutated
		}
		if err := redriveOp(ctx, cl, st, ops.Begin, o); err != nil {
			rep.Errors[addr] = err
			bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
				Addr: addr, Type: typ, Action: "failed", Err: err.Error()})
			continue
		}
		rep.Resumed++
		bus.Publish(evbus.Event{Kind: "recover.op", Run: js.Meta.ID,
			Addr: addr, Type: typ, Action: "resumed"})
	}

	rep.Elapsed = time.Since(start)
	bus.Publish(evbus.Event{Kind: "recover.finish", Run: js.Meta.ID,
		N: int64(rep.Confirmed + rep.Resumed), Ms: durMillis(rep.Elapsed)})
	return st, rep
}

// applyDoneRecord folds a completed op's recorded result into state.
func applyDoneRecord(st *state.State, done *OpRecord) {
	if done.Action == plan.ActionDelete.String() {
		st.Remove(done.Addr)
		return
	}
	// The journal records attributes, not their generation: Generation
	// stays zero and the next refresh reads the resource in full.
	now := time.Now()
	st.Set(&state.ResourceState{
		Addr: done.Addr, Type: done.Type, ID: done.ID, Region: done.Region,
		Attrs: AttrsIn(done.Attrs), Dependencies: done.Deps,
		CreatedAt: now, UpdatedAt: now,
	})
}

// redriveOp idempotently re-executes an in-doubt op.
func redriveOp(ctx context.Context, cl cloud.Interface, st *state.State,
	begin *OpRecord, o Options) error {

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
		Attrs: res.Attrs, Generation: res.Generation, Dependencies: deps,
		CreatedAt: now, UpdatedAt: now,
	})
}
