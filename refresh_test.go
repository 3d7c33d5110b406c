package cloudless_test

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	cloudless "cloudless"
	"cloudless/internal/apply"
	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/plan"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
	"cloudless/internal/workload"
)

// unconditional forwards a cloud with every batched read made
// unconditional: the full refresh a conditional one must agree with.
type unconditional struct{ cloud.Interface }

func (u unconditional) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	plain := make([]cloud.ResourceKey, len(keys))
	for i, k := range keys {
		plain[i] = cloud.ResourceKey{Type: k.Type, ID: k.ID}
	}
	return u.Interface.BatchGet(ctx, plain)
}

// notModifiedCounter forwards a cloud and counts the not_modified answers.
type notModifiedCounter struct {
	cloud.Interface
	n *atomic.Int64
}

func (c notModifiedCounter) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	res, err := c.Interface.BatchGet(ctx, keys)
	for _, r := range res {
		if r.NotModified {
			c.n.Add(1)
		}
	}
	return res, err
}

// TestConditionalRefreshMatchesFullRefreshProperty: across randomized DAG
// workloads, a plan whose refresh reads are conditional on the generation
// each record holds is the plan an unconditional refresh makes, with the
// same refreshed prior state — on a converged stack, after foreign updates
// and deletes, on a state reopened from the commit log and on records that
// carry no generation.
func TestConditionalRefreshMatchesFullRefreshProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			ex := expandFiles(t, workload.RandomDAG(24, seed))
			sim := newSim()
			p, diags := plan.Compute(ctx, ex, state.New(), plan.Options{})
			if diags.HasErrors() {
				t.Fatal(diags.Error())
			}
			res := apply.Apply(ctx, sim, p, apply.Options{Principal: "cloudless"})
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			st := res.State
			for _, addr := range st.Addrs() {
				if st.Get(addr).Generation == 0 {
					t.Fatalf("apply recorded %s without a generation", addr)
				}
			}

			// compare plans prior both ways and returns how many reads the
			// conditional refresh was answered not_modified.
			compare := func(step string, prior *state.State) int64 {
				t.Helper()
				var n atomic.Int64
				cp, diags := plan.Compute(ctx, ex, prior, plan.Options{Refresh: true, Cloud: notModifiedCounter{sim, &n}})
				if diags.HasErrors() {
					t.Fatalf("%s: conditional refresh: %s", step, diags.Error())
				}
				fp, diags := plan.Compute(ctx, ex, prior, plan.Options{Refresh: true, Cloud: unconditional{sim}})
				if diags.HasErrors() {
					t.Fatalf("%s: full refresh: %s", step, diags.Error())
				}
				if got, want := encodeFacadePlan(cp), encodeFacadePlan(fp); got != want {
					t.Fatalf("%s: conditional refresh plans differently:\n--- conditional\n%s\n--- full\n%s", step, got, want)
				}
				if got, want := priorDigest(cp), priorDigest(fp); got != want {
					t.Fatalf("%s: conditional refresh leaves a different prior state:\n--- conditional\n%s\n--- full\n%s", step, got, want)
				}
				return n.Load()
			}

			if n := compare("converged", st); n != int64(st.Len()) {
				t.Errorf("converged: %d of %d reads not_modified, want all", n, st.Len())
			}

			// Persisted through the commit log and read back: the generations
			// survive, so the reads stay conditional.
			reopened := reopenFromLog(t, st)
			if n := compare("reopened", reopened); n != int64(st.Len()) {
				t.Errorf("reopened: %d of %d reads not_modified, want all", n, st.Len())
			}

			// Records written before the field, with no generation: every
			// read is in full.
			if n := compare("no generation", stripGenerations(t, st)); n != 0 {
				t.Errorf("no generation: %d reads not_modified, want none", n)
			}

			// Somebody else renames k VMs and deletes one.
			var vms []*state.ResourceState
			for _, addr := range st.Addrs() {
				if rs := st.Get(addr); rs.Type == "aws_virtual_machine" {
					vms = append(vms, rs)
				}
			}
			k := 1 + int(seed)%3
			for _, rs := range vms[:k] {
				if _, err := sim.Update(ctx, cloud.UpdateRequest{Type: rs.Type, ID: rs.ID, Principal: "somebody-else",
					Attrs: map[string]eval.Value{"name": eval.String("foreign-" + rs.Addr)}}); err != nil {
					t.Fatal(err)
				}
			}
			gone := vms[len(vms)-1]
			if err := sim.Delete(ctx, gone.Type, gone.ID, "somebody-else"); err != nil {
				t.Fatal(err)
			}
			if n, want := compare("foreign changes", st), int64(st.Len()-k-1); n != want {
				t.Errorf("foreign changes: %d reads not_modified, want %d", n, want)
			}
			compare("foreign changes, reopened", reopened)
			compare("foreign changes, no generation", stripGenerations(t, st))
		})
	}
}

// priorDigest renders what a plan's refreshed prior state holds.
func priorDigest(p *cloudless.Plan) string {
	var b strings.Builder
	for _, addr := range p.PriorState.Addrs() {
		rs := p.PriorState.Get(addr)
		fmt.Fprintf(&b, "%s id=%s region=%s gen=%d attrs=%s\n",
			addr, rs.ID, rs.Region, rs.Generation, eval.Object(rs.Attrs).String())
	}
	return b.String()
}

// reopenFromLog commits st's records through a fresh commit log, closes it
// and returns the state a reopened engine replays.
func reopenFromLog(t *testing.T, st *state.State) *state.State {
	t.Helper()
	dir := t.TempDir()
	eng, err := statedb.NewEngine(statedb.BackendWAL, nil, statedb.EngineOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db := statedb.OpenEngine(eng, statedb.ResourceLock)
	txn := db.Begin("seed")
	if err := txn.Lock(context.Background(), st.Addrs()...); err != nil {
		t.Fatal(err)
	}
	for _, addr := range st.Addrs() {
		if err := txn.Put(st.Get(addr)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err = statedb.NewEngine(statedb.BackendWAL, nil, statedb.EngineOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db = statedb.OpenEngine(eng, statedb.ResourceLock)
	defer db.Close()
	back := db.Snapshot()
	for _, addr := range st.Addrs() {
		if got, want := back.Get(addr).Generation, st.Get(addr).Generation; got != want {
			t.Fatalf("reopened %s at generation %d, want %d", addr, got, want)
		}
	}
	return back
}

var generationField = regexp.MustCompile(`,\s*"generation": \d+`)

// stripGenerations is st as a state file written before records carried a
// generation decodes.
func stripGenerations(t *testing.T, st *state.State) *state.State {
	t.Helper()
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	old := generationField.ReplaceAll(data, nil)
	if strings.Contains(string(old), `"generation"`) {
		t.Fatalf("a generation survived stripping:\n%s", old)
	}
	back, err := state.Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	return back
}
