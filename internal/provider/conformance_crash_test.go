package provider

// Crash/restart conformance: the idempotency-key contract and the activity
// log — the two observation channels recovery leans on — must behave
// identically on the in-process simulator and over the HTTP wire.

import (
	"context"
	"testing"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
)

// TestConformanceIdemKeyReplay creates with an idempotency key, then
// "restarts" (a fresh runtime over the same cloud, as a recovering process
// would build) and retries the create under the same key: both backends
// must hand back the original resource, record exactly one create in the
// activity log, and report the replay in metrics.
func TestConformanceIdemKeyReplay(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			rt, sim := ep.make(t, opts, Options{})
			ctx := context.Background()

			req := cloud.CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs:          map[string]eval.Value{"name": eval.String("crash"), "cidr_block": eval.String("10.1.0.0/16")},
				Principal:      "cloudless",
				IdempotencyKey: "run-1/aws_vpc.crash",
			}
			first, err := rt.Create(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			// Restart: a recovering process re-drives the in-doubt create
			// under the same key. The replay contract lives in the backend,
			// so a fresh process sees the same behaviour.
			replay, err := rt.Create(ctx, req)
			if err != nil {
				t.Fatalf("%s: replayed create: %s", ep.name, err)
			}
			if replay.ID != first.ID {
				t.Errorf("%s: replay ID = %s, want original %s (duplicate create)", ep.name, replay.ID, first.ID)
			}
			if got := sim.Metrics().Creates; got != 1 {
				t.Errorf("%s: %d creates reached the cloud, want 1", ep.name, got)
			}
			if got := sim.Metrics().IdemReplays; got != 1 {
				t.Errorf("%s: %d idempotent replays recorded, want 1", ep.name, got)
			}

			// A different key is a genuinely new create (name must differ —
			// the replay protection is the key, not the name).
			req2 := req
			req2.IdempotencyKey = "run-2/aws_vpc.other"
			req2.Attrs = map[string]eval.Value{"name": eval.String("crash-2"), "cidr_block": eval.String("10.2.0.0/16")}
			fresh, err := rt.Create(ctx, req2)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.ID == first.ID {
				t.Errorf("%s: distinct key returned the original resource", ep.name)
			}
		})
	}
}

// TestConformanceActivityLogParity drives the same op sequence through both
// backends — including an idem-key replay that must NOT append a second
// create event — and asserts the activity-log views that drift watch and
// the reconciler read are identical.
func TestConformanceActivityLogParity(t *testing.T) {
	type view struct {
		Op        cloud.EventOp
		Type      string
		Principal string
	}
	var got [][]view
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			rt, _ := ep.make(t, opts, Options{})
			ctx := context.Background()

			vpc, err := rt.Create(ctx, cloud.CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs:          map[string]eval.Value{"name": eval.String("p"), "cidr_block": eval.String("10.0.0.0/16")},
				Principal:      "cloudless",
				IdempotencyKey: "run-9/aws_vpc.p",
			})
			if err != nil {
				t.Fatal(err)
			}
			// Replay (no new event), an update, a doomed create, a delete.
			if _, err := rt.Create(ctx, cloud.CreateRequest{
				Type: "aws_vpc", Region: "us-east-1",
				Attrs:          map[string]eval.Value{"name": eval.String("p"), "cidr_block": eval.String("10.0.0.0/16")},
				Principal:      "cloudless",
				IdempotencyKey: "run-9/aws_vpc.p",
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Update(ctx, cloud.UpdateRequest{
				Type: "aws_vpc", ID: vpc.ID,
				Attrs:     map[string]eval.Value{"enable_dns": eval.True},
				Principal: "cloudless",
			}); err != nil {
				t.Fatal(err)
			}
			bkt, err := rt.Create(ctx, cloud.CreateRequest{
				Type: "aws_storage_bucket", Region: "us-east-1",
				Attrs:     map[string]eval.Value{"name": eval.String("tmp")},
				Principal: "cloudless",
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Delete(ctx, "aws_storage_bucket", bkt.ID, "cloudless"); err != nil {
				t.Fatal(err)
			}

			events, err := rt.Activity(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			v := make([]view, 0, len(events))
			for _, ev := range events {
				v = append(v, view{Op: ev.Op, Type: ev.Type, Principal: ev.Principal})
			}
			got = append(got, v)
		})
	}
	if len(got) != 2 {
		t.Fatalf("expected both backend views, got %d", len(got))
	}
	simView, httpView := got[0], got[1]
	if len(simView) != len(httpView) {
		t.Fatalf("activity log lengths differ: sim %d vs http %d\nsim: %+v\nhttp: %+v",
			len(simView), len(httpView), simView, httpView)
	}
	for i := range simView {
		if simView[i] != httpView[i] {
			t.Errorf("event %d differs: sim %+v vs http %+v", i, simView[i], httpView[i])
		}
	}
}
