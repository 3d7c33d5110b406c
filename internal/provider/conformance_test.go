package provider

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
)

// The conformance suite runs the same scenarios against the in-process
// simulator and the HTTP client (fronting the same simulator over a real
// network path) — both behind a Runtime — and asserts identical observable
// behaviour: a mid-request cancellation surfaces as the caller's context
// error on both paths, never a retryable transport error; injected 429
// bursts are absorbed by the runtime's retry on both paths.

type endpoint struct {
	name string
	make func(t *testing.T, opts cloud.Options, ropts Options) (*Runtime, *cloud.Sim)
}

func endpoints() []endpoint {
	return []endpoint{
		{name: "sim", make: func(t *testing.T, opts cloud.Options, ropts Options) (*Runtime, *cloud.Sim) {
			sim := cloud.NewSim(opts)
			return New(sim, ropts), sim
		}},
		{name: "http", make: func(t *testing.T, opts cloud.Options, ropts Options) (*Runtime, *cloud.Sim) {
			sim := cloud.NewSim(opts)
			srv := httptest.NewServer(cloud.NewServer(sim, slog.New(slog.NewTextHandler(io.Discard, nil))))
			t.Cleanup(srv.Close)
			return New(cloud.NewClient(srv.URL, nil), ropts), sim
		}},
	}
}

func seedVPC(t *testing.T, sim *cloud.Sim) *cloud.Resource {
	t.Helper()
	vpc, err := sim.Create(context.Background(), cloud.CreateRequest{
		Type: "aws_vpc", Region: "us-east-1",
		Attrs:     map[string]eval.Value{"name": eval.String("conf"), "cidr_block": eval.String("10.0.0.0/16")},
		Principal: "seed",
	})
	if err != nil {
		t.Fatal(err)
	}
	return vpc
}

func TestConformanceMidRequestCancellation(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			// ~200ms wall reads (20s modeled × 0.01 scale) while creates
			// stay fast enough for test setup.
			opts.TimeScale = 0.01
			opts.ReadLatency = 20 * time.Second
			rt, sim := ep.make(t, opts, Options{})
			vpc := seedVPC(t, sim)

			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := rt.Get(ctx, "aws_vpc", vpc.ID)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: mid-request cancel => %v, want context.Canceled", ep.name, err)
			}
			// The call must abort near the cancel, not ride out the full
			// read latency (and must not burn retries on a dead context).
			if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
				t.Errorf("%s: canceled get took %v, want prompt abort", ep.name, elapsed)
			}
			if calls := sim.Metrics().Calls; calls > 2 {
				t.Errorf("%s: %d upstream calls after cancel, want no retry storm", ep.name, calls)
			}

			// List behaves the same.
			lctx, lcancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				lcancel()
			}()
			if _, err := rt.List(lctx, "aws_vpc", "us-east-1"); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: canceled list => %v, want context.Canceled", ep.name, err)
			}
		})
	}
}

func TestConformanceCancelDoesNotPoisonFollowers(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			opts.TimeScale = 0.01
			opts.ReadLatency = 15 * time.Second
			rt, sim := ep.make(t, opts, Options{})
			vpc := seedVPC(t, sim)

			// One canceling reader and one patient reader coalesce onto the
			// same flight; the patient one must still get the resource.
			fctx := WithFresh(context.Background())
			cctx, cancel := context.WithCancel(fctx)
			var wg sync.WaitGroup
			var cancelErr, followErr error
			var followRes *cloud.Resource
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, cancelErr = rt.Get(cctx, "aws_vpc", vpc.ID)
			}()
			go func() {
				defer wg.Done()
				time.Sleep(10 * time.Millisecond) // join the in-flight read
				followRes, followErr = rt.Get(fctx, "aws_vpc", vpc.ID)
			}()
			time.Sleep(40 * time.Millisecond)
			cancel()
			wg.Wait()
			if !errors.Is(cancelErr, context.Canceled) {
				t.Errorf("%s: canceling reader => %v, want Canceled", ep.name, cancelErr)
			}
			if followErr != nil || followRes == nil || followRes.ID != vpc.ID {
				t.Errorf("%s: patient reader => %v, %v; want the resource", ep.name, followRes, followErr)
			}
		})
	}
}

func TestConformance429Burst(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			ropts := Options{RetryBase: time.Millisecond, MaxRetries: 8}
			rt, sim := ep.make(t, opts, ropts)
			vpc := seedVPC(t, sim)

			const burst = 6
			sim.InjectThrottles(burst)
			fctx := WithFresh(context.Background())
			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// Distinct keys so the burst is absorbed by retries,
					// not hidden by coalescing.
					if i%2 == 0 {
						_, errs[i] = rt.Get(fctx, "aws_vpc", vpc.ID+string(rune('a'+i)))
					} else {
						_, errs[i] = rt.List(fctx, "aws_vpc", "us-east-1")
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil && !cloud.IsNotFound(err) {
					t.Errorf("%s: caller %d => %v, want burst absorbed by retry", ep.name, i, err)
				}
			}
			if got := sim.Metrics().Throttled; got != burst {
				t.Errorf("%s: sim throttled %d calls, want %d", ep.name, got, burst)
			}
			st := rt.Stats()
			if st.Retries < burst {
				t.Errorf("%s: runtime retries = %d, want >= %d (every 429 retried)", ep.name, st.Retries, burst)
			}
			if st.Throttles != int64(burst) {
				t.Errorf("%s: runtime observed %d throttles, want %d", ep.name, st.Throttles, burst)
			}
		})
	}
}

func TestConformanceHealthLifecycle(t *testing.T) {
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			rt, sim := ep.make(t, opts, Options{})

			// Missing resources 404 identically on both paths.
			if _, err := rt.Health(context.Background(), "aws_vpc", "vpc-nope"); !cloud.IsNotFound(err) {
				t.Fatalf("%s: health of missing resource => %v, want 404", ep.name, err)
			}

			vpc := seedVPC(t, sim)
			rep, err := rt.Health(context.Background(), "aws_vpc", vpc.ID)
			if err != nil {
				t.Fatalf("%s: health: %s", ep.name, err)
			}
			if rep.Status != cloud.HealthReady {
				t.Fatalf("%s: status = %s, want ready", ep.name, rep.Status)
			}

			// Degrade server-side; a cached report must not mask it under
			// WithFresh (the guarded probe path).
			sim.SetHealth("aws_vpc", vpc.ID, cloud.HealthDegraded, "conformance")
			rep, err = rt.Health(WithFresh(context.Background()), "aws_vpc", vpc.ID)
			if err != nil {
				t.Fatalf("%s: fresh health: %s", ep.name, err)
			}
			if rep.Status != cloud.HealthDegraded || rep.Reason != "conformance" {
				t.Fatalf("%s: fresh report = %+v, want degraded/conformance", ep.name, rep)
			}
		})
	}
}

// describe renders one batch item outcome without anything an endpoint may
// legitimately vary (timestamps): what the two transcripts are compared on.
func describe(r cloud.BatchResult) string {
	if r.Err != nil {
		var ae *cloud.APIError
		if errors.As(r.Err, &ae) {
			return fmt.Sprintf("err %d %s %s %q %s", ae.Code, ae.Op, ae.Type, ae.ID, ae.Message)
		}
		return "err " + r.Err.Error()
	}
	if r.NotModified {
		return "not_modified"
	}
	return fmt.Sprintf("ok %s %s %s name=%s gen=%d", r.Resource.Type, r.Resource.ID, r.Resource.Region,
		r.Resource.Attr("name").AsString(), r.Resource.Generation)
}

func resourceIDs(rs []*cloud.Resource) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// TestConformanceBulkVerbs drives the bulk half of cloud.Interface —
// BatchCreate, BatchGet, ListPage (and List as its unbounded page),
// WaitActivity — through a Runtime over the simulator and over HTTP. Each
// endpoint must meet the per-verb contract, and the two transcripts must be
// identical: per-item outcomes, their order and their error text do not
// depend on whether the cloud is a goroutine or a network away.
func TestConformanceBulkVerbs(t *testing.T) {
	transcripts := map[string][]string{}
	for _, ep := range endpoints() {
		t.Run(ep.name, func(t *testing.T) {
			opts := cloud.DefaultOptions()
			opts.DisableRateLimit = true
			opts.TimeScale = 0.0001
			rt, sim := ep.make(t, opts, Options{})
			ctx := WithFresh(context.Background())
			var log []string
			note := func(step string, v any) { log = append(log, fmt.Sprintf("%s: %v", step, v)) }
			vpcReq := func(name, key string) cloud.CreateRequest {
				return cloud.CreateRequest{Type: "aws_vpc", Region: "us-east-1", Principal: "conf", IdempotencyKey: key,
					Attrs: map[string]eval.Value{"name": eval.String(name), "cidr_block": eval.String("10.0.0.0/16")}}
			}

			// BatchCreate: per-item errors, index-aligned, neighbours unaffected.
			created, err := rt.BatchCreate(ctx, []cloud.CreateRequest{
				{Type: "aws_nope", Region: "us-east-1", Principal: "conf"},
				vpcReq("bulk-a", "key-a"),
				{Type: "aws_region", Principal: "conf"},
			})
			if err != nil || len(created) != 3 {
				t.Fatalf("batch create => %d results, %v; want 3 index-aligned results", len(created), err)
			}
			for i, r := range created {
				note(fmt.Sprintf("create[%d]", i), describe(r))
			}
			if created[1].Err != nil || created[1].Resource.Attr("name").AsString() != "bulk-a" {
				t.Fatalf("valid item between two bad ones => %s", describe(created[1]))
			}
			for _, i := range []int{0, 2} {
				var ae *cloud.APIError
				if !errors.As(created[i].Err, &ae) || ae.Code != cloud.CodeInvalid || created[i].Resource != nil {
					t.Errorf("item %d => %s, want a per-item 400", i, describe(created[i]))
				}
			}
			idA := created[1].Resource.ID

			// Idempotency keys replay per item: the keyed create comes back as
			// the same resource, its batch-mate is provisioned fresh.
			replayed, err := rt.BatchCreate(ctx, []cloud.CreateRequest{vpcReq("bulk-a", "key-a"), vpcReq("bulk-b", "key-b")})
			if err != nil || len(replayed) != 2 || replayed[0].Err != nil || replayed[1].Err != nil {
				t.Fatalf("replay batch => %v, %v", replayed, err)
			}
			note("replay[0]", describe(replayed[0]))
			note("replay[1]", describe(replayed[1]))
			idB := replayed[1].Resource.ID
			if replayed[0].Resource.ID != idA || idB == idA {
				t.Errorf("replay => %s and %s, want %s again and a new resource", replayed[0].Resource.ID, idB, idA)
			}
			if m := sim.Metrics(); m.IdemReplays != 1 || m.Creates != 2 {
				t.Errorf("sim saw %d replays and %d creates, want 1 and 2", m.IdemReplays, m.Creates)
			}

			// BatchGet: a missing ID is its item's 404, not the call's.
			got, err := rt.BatchGet(ctx, []cloud.ResourceKey{
				{Type: "aws_vpc", ID: idA}, {Type: "aws_vpc", ID: "vpc-missing"}, {Type: "aws_vpc", ID: idB}})
			if err != nil || len(got) != 3 {
				t.Fatalf("batch get => %d results, %v", len(got), err)
			}
			for i, r := range got {
				note(fmt.Sprintf("get[%d]", i), describe(r))
			}
			if got[0].Err != nil || got[0].Resource.ID != idA || got[2].Err != nil || got[2].Resource.ID != idB ||
				!cloud.IsNotFound(got[1].Err) {
				t.Errorf("batch get => %s | %s | %s; want hit, 404, hit", describe(got[0]), describe(got[1]), describe(got[2]))
			}

			// A conditional read: the generation the caller holds comes back
			// not_modified, any other is answered in full, a missing ID is
			// still its item's 404; after an update the old generation reads
			// the new resource.
			genA, genB := got[0].Resource.Generation, got[2].Resource.Generation
			conditional := func(step string, gen int) []cloud.BatchResult {
				t.Helper()
				res, err := rt.BatchGet(ctx, []cloud.ResourceKey{
					{Type: "aws_vpc", ID: idA, IfGeneration: gen},
					{Type: "aws_vpc", ID: idB, IfGeneration: genB + 7},
					{Type: "aws_vpc", ID: "vpc-missing", IfGeneration: 1}})
				if err != nil || len(res) != 3 {
					t.Fatalf("conditional batch get => %d results, %v", len(res), err)
				}
				for i, r := range res {
					note(fmt.Sprintf("%s[%d]", step, i), describe(r))
				}
				if res[1].Err != nil || res[1].Resource.ID != idB || res[1].Resource.Generation != genB || !cloud.IsNotFound(res[2].Err) {
					t.Errorf("%s => %s | %s; want %s in full at generation %d, then a 404",
						step, describe(res[1]), describe(res[2]), idB, genB)
				}
				return res
			}
			if r := conditional("if-gen", genA)[0]; !r.NotModified || r.Resource != nil || r.Err != nil {
				t.Errorf("read of %s at its generation %d => %s, want not_modified", idA, genA, describe(r))
			}
			if _, err := rt.Update(ctx, cloud.UpdateRequest{Type: "aws_vpc", ID: idA, Principal: "conf",
				Attrs: map[string]eval.Value{"enable_dns": eval.False}}); err != nil {
				t.Fatal(err)
			}
			if r := conditional("if-old-gen", genA)[0]; r.Err != nil || r.NotModified || r.Resource.Generation <= genA ||
				!r.Resource.Attr("enable_dns").Equal(eval.False) {
				t.Errorf("read of %s at the generation before an update => %s, want the updated resource", idA, describe(r))
			}

			// An oversized batch fails whole, with a 400, at the upstream (the
			// runtime itself chunks, so it is asked directly).
			keys := make([]cloud.ResourceKey, cloud.MaxBatchItems+1)
			reqs := make([]cloud.CreateRequest, cloud.MaxBatchItems+1)
			for i := range keys {
				keys[i] = cloud.ResourceKey{Type: "aws_vpc", ID: idA}
				reqs[i] = vpcReq(fmt.Sprintf("big-%d", i), "")
			}
			_, getErr := rt.upstream.BatchGet(ctx, keys)
			_, createErr := rt.upstream.BatchCreate(ctx, reqs)
			for verb, err := range map[string]error{"get": getErr, "create": createErr} {
				var ae *cloud.APIError
				if !errors.As(err, &ae) || ae.Code != cloud.CodeInvalid || !strings.Contains(ae.Message, "BatchTooLarge") {
					t.Errorf("oversized batch %s => %v, want a whole-call 400 BatchTooLarge", verb, err)
				}
			}
			note("too large", []string{getErr.Error(), createErr.Error()})
			if n := sim.Metrics().Creates; n != 2 {
				t.Errorf("oversized batch create provisioned: %d creates, want 2", n)
			}

			// ListPage at limit 2 over five VPCs, with one resource already
			// seen deleted, one not yet seen deleted and one created between
			// pages: every survivor appears exactly once.
			for _, name := range []string{"bulk-c", "bulk-d", "bulk-e"} {
				if _, err := rt.Create(ctx, vpcReq(name, "")); err != nil {
					t.Fatal(err)
				}
			}
			before, err := rt.List(ctx, "aws_vpc", "us-east-1")
			if err != nil || len(before) != 5 {
				t.Fatalf("list => %v, %v; want five", resourceIDs(before), err)
			}
			seen := map[string]int{}
			page, err := rt.ListPage(ctx, "aws_vpc", "us-east-1", 2, "")
			if err != nil || len(page.Resources) != 2 || page.NextPageToken == "" {
				t.Fatalf("first page => %+v, %v", page, err)
			}
			note("page", resourceIDs(page.Resources))
			for _, r := range page.Resources {
				seen[r.ID]++
			}
			for _, gone := range []string{before[0].ID, before[3].ID} {
				if err := rt.Delete(ctx, "aws_vpc", gone, "conf"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rt.Create(ctx, vpcReq("bulk-f", "")); err != nil {
				t.Fatal(err)
			}
			for page.NextPageToken != "" {
				if page, err = rt.ListPage(ctx, "aws_vpc", "us-east-1", 2, page.NextPageToken); err != nil {
					t.Fatal(err)
				}
				if len(page.Resources) > 2 {
					t.Errorf("page of %d at limit 2", len(page.Resources))
				}
				note("page", resourceIDs(page.Resources))
				for _, r := range page.Resources {
					seen[r.ID]++
				}
			}
			for _, survivor := range []string{before[1].ID, before[2].ID, before[4].ID} {
				if seen[survivor] != 1 {
					t.Errorf("survivor %s seen %d times across the pages, want once", survivor, seen[survivor])
				}
			}
			if seen[before[3].ID] != 0 {
				t.Errorf("%s was deleted before its page and listed anyway", before[3].ID)
			}

			// List is the concatenated pages, whatever the page size.
			all, err := rt.List(ctx, "aws_vpc", "")
			if err != nil || len(all) != 4 {
				t.Fatalf("list => %v, %v; want four", resourceIDs(all), err)
			}
			note("list", resourceIDs(all))
			for _, limit := range []int{1, 3, 4, 100} {
				var walked []string
				for token := ""; ; {
					p, err := rt.ListPage(ctx, "aws_vpc", "", limit, token)
					if err != nil {
						t.Fatal(err)
					}
					walked = append(walked, resourceIDs(p.Resources)...)
					if token = p.NextPageToken; token == "" {
						break
					}
				}
				if !reflect.DeepEqual(walked, resourceIDs(all)) {
					t.Errorf("pages at limit %d = %v, list = %v", limit, walked, resourceIDs(all))
				}
			}
			if other, err := rt.List(ctx, "aws_vpc", "us-west-2"); err != nil || len(other) != 0 {
				t.Errorf("list of an empty region => %v, %v", resourceIDs(other), err)
			}

			// WaitActivity: no events and no error on a quiet timeout, the new
			// events as soon as one is appended.
			last := sim.LastSeq()
			if evs, err := rt.WaitActivity(ctx, last, 30*time.Millisecond); len(evs) != 0 || err != nil {
				t.Errorf("quiet wait => %v, %v; want no events, no error", evs, err)
			}
			go func() {
				time.Sleep(20 * time.Millisecond)
				_, _ = sim.Create(context.Background(), vpcReq("bulk-g", ""))
			}()
			start := time.Now()
			evs, err := rt.WaitActivity(ctx, last, 10*time.Second)
			if err != nil || len(evs) == 0 || evs[0].Seq != last+1 || evs[0].Op != cloud.OpCreate {
				t.Fatalf("wait across an append => %v, %v; want the create at seq %d", evs, err, last+1)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("wait returned after %v: it rode out the timeout instead of waking on the append", elapsed)
			}
			note("woke", fmt.Sprintf("%d %s %s %s", evs[0].Seq, evs[0].Op, evs[0].Type, evs[0].ID))

			transcripts[ep.name] = log
		})
	}
	// (Both are present unless -run picked one endpoint or one already failed.)
	if sim, http := transcripts["sim"], transcripts["http"]; len(transcripts) == 2 && !reflect.DeepEqual(sim, http) {
		t.Errorf("endpoints disagree:\n sim:  %q\n http: %q", sim, http)
	}
}
