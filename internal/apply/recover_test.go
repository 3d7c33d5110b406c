package apply

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/plan"
	"cloudless/internal/state"
)

// planFor computes a plan for src against prior state.
func planFor(t *testing.T, src string, prior *state.State) *plan.Plan {
	t.Helper()
	ex := expandSrc(t, src)
	p, diags := plan.Compute(context.Background(), ex, prior, plan.Options{})
	if diags.HasErrors() {
		t.Fatalf("plan: %s", diags.Error())
	}
	return p
}

// assertConverged verifies the cloud holds exactly the desired resources:
// re-planning yields no changes, every state entry exists in the cloud, and
// the cloud has no resources state does not know about.
func assertConverged(t *testing.T, sim *cloud.Sim, src string, st *state.State) {
	t.Helper()
	p := planFor(t, src, st)
	if n := len(nonNoop(p)); n != 0 {
		t.Errorf("re-plan has %d pending changes, want 0: %v", n, nonNoop(p))
	}
	ctx := context.Background()
	inCloud := 0
	for _, addr := range st.Addrs() {
		rs := st.Get(addr)
		if _, err := sim.Get(ctx, rs.Type, rs.ID); err != nil {
			t.Errorf("state entry %s (%s) missing from cloud: %s", addr, rs.ID, err)
		}
	}
	inCloud = sim.TotalResources()
	if inCloud != st.Len() {
		t.Errorf("cloud holds %d resources, state holds %d (orphans or losses)", inCloud, st.Len())
	}
}

func nonNoop(p *plan.Plan) []string {
	var out []string
	for addr, ch := range p.Changes {
		if ch.Action != plan.ActionNoop {
			out = append(out, addr)
		}
	}
	return out
}

func TestApplyWithJournalDiscardAfterSuccess(t *testing.T) {
	sim := newSim()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, webConfig, state.New())
	res := Apply(context.Background(), sim, p, Options{Journal: j})
	if err := res.Err(); err != nil {
		t.Fatalf("apply: %s", err)
	}

	// Every non-noop op has durable begin + done before discard, and the
	// file holds nothing else but the meta record.
	js, err := ReadJournal(path)
	if err != nil || js == nil {
		t.Fatalf("read journal: %v, %v", js, err)
	}
	if len(js.Ops) != 5 {
		t.Errorf("%d ops, want 5", len(js.Ops))
	}
	if got := js.InDoubt(); len(got) != 0 {
		t.Errorf("in-doubt after clean apply: %v", got)
	}
	for _, addr := range nonNoop(p) {
		st := js.Ops[addr]
		if st == nil || st.Begin == nil || st.Done == nil {
			t.Errorf("%s: incomplete journal entry %+v", addr, st)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(withoutIntents(t, raw)); got != len(raw) {
		t.Errorf("the journal holds an intents frame (%d of %d bytes)", len(raw)-got, len(raw))
	}
	if err := j.Discard(); err != nil {
		t.Fatal(err)
	}
}

// Crash after the cloud committed a create but before the done record: the
// op is in doubt, and recovery must resume it without a duplicate.
func TestRecoverResumesInDoubtCreate(t *testing.T) {
	sim := newSim()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Kill on the 3rd mutating op, after it lands server-side.
	sim.InjectCrash(cloud.CrashAfterOp, 3, func() { j.Kill(); cancel() })

	p := planFor(t, webConfig, state.New())
	res := Apply(ctx, sim, p, Options{Journal: j, ContinueOnError: true})
	if res.Err() == nil {
		t.Fatal("apply survived an injected crash")
	}
	j.Close()

	created := sim.TotalResources()
	if created == 0 {
		t.Fatal("crash fired before anything landed")
	}

	// --- restart ---
	js, err := ReadJournal(path)
	if err != nil || js == nil {
		t.Fatalf("read journal: %v, %v", js, err)
	}
	if len(js.InDoubt()) == 0 {
		t.Fatal("no in-doubt ops recorded")
	}
	recovered, rep := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("recover report: %s", err)
	}
	if rep.Resumed == 0 {
		t.Error("nothing resumed")
	}
	// The in-doubt create was answered from the idempotency index.
	if sim.Metrics().IdemReplays == 0 {
		t.Error("in-doubt create was not replayed idempotently")
	}

	// Continue: re-plan from the reconciled state and finish the remainder.
	p2 := planFor(t, webConfig, recovered)
	res2 := Apply(context.Background(), sim, p2, Options{})
	if err := res2.Err(); err != nil {
		t.Fatalf("continuation apply: %s", err)
	}
	assertConverged(t, sim, webConfig, res2.State)
	// Zero duplicate creates: exactly the 5 desired resources exist.
	if sim.TotalResources() != 5 {
		t.Errorf("cloud holds %d resources, want 5", sim.TotalResources())
	}
}

// Crash before the op reaches the cloud: begin is journaled but nothing
// mutated; recovery provisions it fresh under the journaled idempotency key.
func TestRecoverRunsNeverStartedOp(t *testing.T) {
	sim := newSim()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.InjectCrash(cloud.CrashBeforeOp, 1, func() { j.Kill(); cancel() })

	p := planFor(t, webConfig, state.New())
	res := Apply(ctx, sim, p, Options{Journal: j})
	if res.Err() == nil {
		t.Fatal("apply survived an injected crash")
	}
	j.Close()
	if sim.TotalResources() != 0 {
		t.Fatalf("before-op crash still mutated the cloud: %d resources", sim.TotalResources())
	}

	js, err := ReadJournal(path)
	if err != nil || js == nil {
		t.Fatalf("read journal: %v, %v", js, err)
	}
	recovered, rep := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("recover report: %s", err)
	}
	p2 := planFor(t, webConfig, recovered)
	res2 := Apply(context.Background(), sim, p2, Options{})
	if err := res2.Err(); err != nil {
		t.Fatalf("continuation apply: %s", err)
	}
	assertConverged(t, sim, webConfig, res2.State)
}

// TestRecoverLeavesOtherProjectsAlone: recovery touches only what the
// journal names. Project B is converged on the same cloud under the same
// principal; recovering project A — from a journal that holds nothing, or
// from one whose VPC create the cloud rejected because B already holds that
// name — leaves all of B's resources in the cloud and none in A's state.
func TestRecoverLeavesOtherProjectsAlone(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, sim *cloud.Sim, j *Journal)
	}{
		{"empty journal", func(*testing.T, *cloud.Sim, *Journal) {}},
		{"vpc name conflict", func(t *testing.T, sim *cloud.Sim, j *Journal) {
			res := Apply(context.Background(), sim, planFor(t, webConfig, state.New()), Options{Journal: j})
			var ae *cloud.APIError
			if err := res.Errors["aws_vpc.main"]; !errors.As(err, &ae) || ae.Code != cloud.CodeConflict {
				t.Fatalf("project A's VPC create: %v, want a name conflict", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			sim := newSim()
			_, b := planAndApply(t, sim, webConfig, state.New(), Options{Principal: "cloudless"})
			if err := b.Err(); err != nil {
				t.Fatalf("project B: %s", err)
			}
			path := filepath.Join(t.TempDir(), "a.journal")
			j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
			if err != nil {
				t.Fatal(err)
			}
			c.run(t, sim, j)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			js, err := ReadJournal(path)
			if err != nil || js == nil {
				t.Fatalf("read journal: %v, %v", js, err)
			}
			a, rep := Recover(ctx, sim, js, state.New(), Options{Principal: "cloudless"})
			if err := rep.Err(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			for _, addr := range b.State.Addrs() {
				rs := b.State.Get(addr)
				if _, err := sim.Get(ctx, rs.Type, rs.ID); err != nil {
					t.Errorf("project B's %s (%s) is gone: %v", addr, rs.ID, err)
				}
				if got := a.ByID(rs.ID); got != nil {
					t.Errorf("project A's state holds B's %s as %s", rs.ID, got.Addr)
				}
			}
			if n := sim.TotalResources(); n != 5 {
				t.Errorf("cloud holds %d resources, want project B's 5", n)
			}
		})
	}
}

// Recovery is idempotent: running it twice from the same journal converges
// to the same state with no extra cloud damage — the property that makes a
// crash during recovery itself safe.
func TestRecoverIdempotent(t *testing.T) {
	sim := newSim()
	path := filepath.Join(t.TempDir(), "apply.journal")
	j, err := NewJournal(path, Meta{Kind: "apply", Principal: "cloudless"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.InjectCrash(cloud.CrashAfterOp, 2, func() { j.Kill(); cancel() })
	p := planFor(t, webConfig, state.New())
	if res := Apply(ctx, sim, p, Options{Journal: j}); res.Err() == nil {
		t.Fatal("apply survived an injected crash")
	}
	j.Close()

	js, err := ReadJournal(path)
	if err != nil || js == nil {
		t.Fatalf("read journal: %v, %v", js, err)
	}
	st1, rep1 := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep1.Err(); err != nil {
		t.Fatalf("first recover: %v", err)
	}
	resourcesAfterFirst := sim.TotalResources()
	st2, rep2 := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep2.Err(); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if sim.TotalResources() != resourcesAfterFirst {
		t.Errorf("second recovery changed the cloud: %d -> %d", resourcesAfterFirst, sim.TotalResources())
	}
	if st1.Fingerprint() != st2.Fingerprint() {
		t.Error("recoveries diverged")
	}
}

// An op the cloud definitively rejected (journaled fail) is not re-driven.
func TestRecoverSkipsDefinitiveFailures(t *testing.T) {
	sim := newSim()
	js := &JournalState{
		Meta: Meta{ID: "apply-test", Kind: "apply", Principal: "cloudless"},
		Ops: map[string]*OpStatus{
			"aws_vpc.bad": {
				Begin:     &OpRecord{Addr: "aws_vpc.bad", Action: "create", Type: "aws_vpc", Region: "us-east-1"},
				FailError: "InvalidParameter: required property \"cidr_block\" was not provided",
			},
		},
	}
	st, rep := Recover(context.Background(), sim, js, state.New(), Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Resumed != 0 || st.Len() != 0 || sim.TotalResources() != 0 {
		t.Errorf("failed op was re-driven: resumed=%d state=%d cloud=%d",
			rep.Resumed, st.Len(), sim.TotalResources())
	}
}

func TestDefinitiveFailureClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&cloud.APIError{Code: cloud.CodeInvalid}, true},
		{&cloud.APIError{Code: cloud.CodeConflict}, true},
		{&cloud.APIError{Code: cloud.CodeNotFound}, true},
		{&cloud.APIError{Code: cloud.CodeThrottled, Retryable: true}, false},
		{&cloud.APIError{Code: cloud.CodeInternal, Retryable: true}, false},
		{cloud.ErrCrashed, false},
		{context.Canceled, false},
		{errors.New("transport: connection reset"), false},
	}
	for _, c := range cases {
		if got := DefinitiveFailure(c.err); got != c.want {
			t.Errorf("DefinitiveFailure(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
