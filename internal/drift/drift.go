// Package drift detects and reconciles "resource drift": cloud changes made
// outside IaC control (§3.5). It implements both detection strategies the
// paper contrasts — the driftctl-style full API scan, which burns rate-
// limited control-plane calls, and the cloudless-native activity-log watcher,
// which reads the (cheap, incrementally-pollable) audit log — plus a
// reconciliation step that either adopts the drift into state, reverts it in
// the cloud, or surfaces it for human attention.
package drift

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	evbus "cloudless/internal/events"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/schema"
	"cloudless/internal/state"
)

// Kind classifies a drift item.
type Kind int

// Drift kinds.
const (
	// Modified: a managed resource's attributes changed out-of-band.
	Modified Kind = iota
	// Deleted: a managed resource disappeared out-of-band.
	Deleted
	// Unmanaged: a resource exists in the cloud but not in state.
	Unmanaged
)

var kindNames = map[Kind]string{Modified: "modified", Deleted: "deleted", Unmanaged: "unmanaged"}

// String names the kind.
func (k Kind) String() string { return kindNames[k] }

// Item is one detected divergence between state and cloud.
type Item struct {
	Kind Kind
	// Addr is the state address ("" for unmanaged resources).
	Addr string
	Type string
	ID   string
	// ChangedAttrs lists modified attribute names, sorted.
	ChangedAttrs []string
	// Actor is the principal that caused the drift when known (from the
	// activity log; full scans cannot attribute).
	Actor string
	// CloudAttrs is the current cloud-side attribute set (nil for Deleted).
	CloudAttrs map[string]eval.Value
}

// Report is the outcome of one detection pass.
type Report struct {
	Items []Item
	// APICalls is the number of rate-limited control-plane calls spent.
	APICalls int
	// LogReads is the number of activity-log reads (cheap) spent.
	LogReads int
	// Elapsed is the wall time of the pass.
	Elapsed time.Duration
	// Method names the strategy ("full-scan", "activity-log" or "scoped").
	Method string
	// BaseSerial is the golden-state serial the report was computed
	// against. Reconciling a report whose base has since advanced would
	// revert against a moved baseline; consumers compare this against the
	// current serial and fail with *ErrStaleReport instead.
	BaseSerial int
}

// ErrStaleReport mirrors statedb's *StaleBaseError for drift artifacts: the
// report was detected against a golden-state serial that has since advanced,
// so acting on it would revert changes that post-date the detection.
type ErrStaleReport struct {
	// ReportSerial is the serial the drift report was computed against.
	ReportSerial int
	// CurrentSerial is the golden state's serial now.
	CurrentSerial int
}

func (e *ErrStaleReport) Error() string {
	return fmt.Sprintf("drift: stale report: detected against state serial %d but the state is now at serial %d; re-detect and retry",
		e.ReportSerial, e.CurrentSerial)
}

// HasDrift reports whether anything diverged.
func (r *Report) HasDrift() bool { return len(r.Items) > 0 }

// publishItems announces each detection on the context's event bus, tagged
// with the detection method in Wave ("full-scan" / "activity-log").
func publishItems(ctx context.Context, method string, items []Item) {
	bus := evbus.FromContext(ctx)
	if bus == nil {
		return
	}
	for _, it := range items {
		bus.Publish(evbus.Event{Kind: "drift.detected", Action: it.Kind.String(),
			Addr: it.Addr, Type: it.Type, ID: it.ID, Principal: it.Actor,
			Wave: method, N: int64(len(it.ChangedAttrs))})
	}
}

func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Addr != items[j].Addr {
			return items[i].Addr < items[j].Addr
		}
		return items[i].ID < items[j].ID
	})
}

// diffAttrs returns configuration-relevant attribute names that differ.
// Computed attributes are excluded: they belong to the cloud.
func diffAttrs(typ string, recorded, current map[string]eval.Value) []string {
	rs, ok := schema.LookupResource(typ)
	var changed []string
	for name, have := range recorded {
		if ok {
			if a := rs.Attr(name); a != nil && a.Computed {
				continue
			}
		}
		cur, exists := current[name]
		if !exists || !cur.Equal(have) {
			changed = append(changed, name)
		}
	}
	for name := range current {
		if _, exists := recorded[name]; !exists {
			if ok {
				if a := rs.Attr(name); a != nil && a.Computed {
					continue
				}
			}
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return changed
}

// scanFanOut bounds concurrent List calls during a full scan. The provider
// runtime's AIMD gate adapts the effective cloud concurrency below this; the
// bound here only keeps the goroutine count proportionate.
const scanFanOut = 16

// scanPageSize bounds one listing response during a full scan. Large fleets
// are walked page by page (ListPage, "strictly after" tokens) so no
// single response has to carry 100k resources; small fleets still cost one
// call per (type, region).
const scanPageSize = 1000

// listJob drains one (type, region) listing page by page, counting every
// control-plane round-trip into calls.
func listJob(ctx context.Context, cl cloud.Interface, typ, region string, calls *atomic.Int64) ([]*cloud.Resource, error) {
	var out []*cloud.Resource
	token := ""
	for {
		calls.Add(1)
		page, err := cl.ListPage(ctx, typ, region, scanPageSize, token)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Resources...)
		if page.NextPageToken == "" {
			return out, nil
		}
		token = page.NextPageToken
	}
}

// FullScan detects drift the way industry tools like driftctl do: list every
// resource of every type in every region through the rate-limited cloud API
// and compare against state. Thorough but expensive — the E7 experiment
// measures exactly how expensive. Listing is paginated (scanPageSize per
// response) and fans out through the provider runtime (which coalesces
// identical Lists across concurrent scanners); reads are marked fresh,
// because the whole point of a scan is
// observing out-of-band change no cache TTL can bound. Results are compared
// in deterministic (type, region) order regardless of arrival order.
func FullScan(ctx context.Context, cl cloud.Interface, st *state.State) (*Report, error) {
	start := time.Now()
	rep := &Report{Method: "full-scan", BaseSerial: st.Serial}

	type scanJob struct {
		typ, region string
	}
	var jobs []scanJob
	for _, provName := range schema.Providers() {
		prov, _ := schema.LookupProvider(provName)
		types := make([]string, 0, len(prov.Resources))
		for typ, rs := range prov.Resources {
			if !rs.DataSource {
				types = append(types, typ)
			}
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, region := range prov.Regions {
				jobs = append(jobs, scanJob{typ: typ, region: region})
			}
		}
	}

	scanCtx, cancel := context.WithCancel(provider.WithFresh(ctx))
	defer cancel()
	lists := make([][]*cloud.Resource, len(jobs))
	errs := make([]error, len(jobs))
	var apiCalls atomic.Int64
	// Workers claim jobs from an ordered cursor rather than racing a
	// semaphore: every scan walks the (type, region) list in the same order,
	// so concurrent scanners stay in lockstep and their Lists coalesce in
	// the provider runtime instead of interleaving disjoint job ranges.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := scanFanOut
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if scanCtx.Err() != nil {
					errs[i] = scanCtx.Err()
					continue
				}
				lists[i], errs[i] = listJob(scanCtx, cl, jobs[i].typ, jobs[i].region, &apiCalls)
				if errs[i] != nil {
					cancel() // no point finishing the sweep
				}
			}
		}()
	}
	wg.Wait()

	rep.APICalls = int(apiCalls.Load())
	// Report the first real failure, not the context cancellations that
	// aborting the rest of the sweep produced.
	var firstErr error
	for i, job := range jobs {
		err := errs[i]
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("drift scan %s in %s: %w", job.typ, job.region, err)
		if firstErr == nil {
			firstErr = wrapped
		}
		if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
			firstErr = wrapped
			break
		}
	}
	if firstErr != nil {
		return rep, firstErr
	}
	seen := map[string]bool{} // cloud IDs seen during the scan
	for i := range jobs {
		for _, res := range lists[i] {
			seen[res.ID] = true
			rs := st.ByID(res.ID)
			if rs == nil {
				rep.Items = append(rep.Items, Item{
					Kind: Unmanaged, Type: res.Type, ID: res.ID,
					CloudAttrs: res.Attrs,
				})
				continue
			}
			if changed := diffAttrs(res.Type, rs.Attrs, res.Attrs); len(changed) > 0 {
				rep.Items = append(rep.Items, Item{
					Kind: Modified, Addr: rs.Addr, Type: res.Type, ID: res.ID,
					ChangedAttrs: changed, CloudAttrs: res.Attrs,
				})
			}
		}
	}
	for _, addr := range st.Addrs() {
		rs := st.Get(addr)
		if !seen[rs.ID] {
			rep.Items = append(rep.Items, Item{
				Kind: Deleted, Addr: addr, Type: rs.Type, ID: rs.ID,
			})
		}
	}
	sortItems(rep.Items)
	publishItems(ctx, rep.Method, rep.Items)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Watcher is the cloudless-native detector: it tails the activity log and
// reacts only to events from principals other than its own, resolving each
// to a targeted Get instead of scanning the world.
type Watcher struct {
	cl cloud.Interface
	// Principal is "us": events by this principal are expected and skipped.
	Principal string
	lastSeq   int64
}

// NewWatcher builds a watcher starting after the given log sequence number
// (use the cloud's current tail so pre-existing history is not replayed).
func NewWatcher(cl cloud.Interface, principal string, afterSeq int64) *Watcher {
	return &Watcher{cl: cl, Principal: principal, lastSeq: afterSeq}
}

// LastSeq returns the watcher's log cursor.
func (w *Watcher) LastSeq() int64 { return w.lastSeq }

// Poll reads new activity-log events and turns foreign ones into drift
// items, advancing the cursor.
func (w *Watcher) Poll(ctx context.Context, st *state.State) (*Report, error) {
	start := time.Now()
	rep := &Report{Method: "activity-log", BaseSerial: st.Serial}
	events, err := w.cl.Activity(ctx, w.lastSeq)
	rep.LogReads++
	if err != nil {
		return rep, fmt.Errorf("drift watch: %w", err)
	}
	// Coalesce events per resource: the last event wins.
	type agg struct {
		ev      cloud.Event
		changed map[string]bool
	}
	byID := map[string]*agg{}
	var order []string
	for _, ev := range events {
		if ev.Seq > w.lastSeq {
			w.lastSeq = ev.Seq
		}
		if ev.Principal == w.Principal {
			continue
		}
		a := byID[ev.ID]
		if a == nil {
			a = &agg{changed: map[string]bool{}}
			byID[ev.ID] = a
			order = append(order, ev.ID)
		}
		a.ev = ev
		for _, c := range ev.Changed {
			a.changed[c] = true
		}
	}
	// First pass: decide which foreign events need a verifying read — an
	// OpCreate of an unmanaged ID or an OpUpdate of a managed one. The
	// reads then go out as batched gets (one admitted call per
	// MaxBatchItems chunk) instead of one Get per event, which is what
	// keeps a busy poll cheap on a 100k-resource fleet.
	var keys []cloud.ResourceKey
	for _, id := range order {
		a := byID[id]
		rs := st.ByID(id)
		if (a.ev.Op == cloud.OpCreate && rs == nil) || (a.ev.Op == cloud.OpUpdate && rs != nil) {
			keys = append(keys, cloud.ResourceKey{Type: a.ev.Type, ID: id})
		}
	}
	verified := make(map[string]cloud.BatchResult, len(keys))
	for start := 0; start < len(keys); start += cloud.MaxBatchItems {
		end := start + cloud.MaxBatchItems
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[start:end]
		results, err := w.cl.BatchGet(ctx, chunk)
		rep.APICalls++
		if err != nil {
			return rep, fmt.Errorf("drift watch: %w", err)
		}
		for i, k := range chunk {
			verified[k.ID] = results[i]
		}
	}
	for _, id := range order {
		a := byID[id]
		rs := st.ByID(id)
		switch a.ev.Op {
		case cloud.OpDelete:
			if rs != nil {
				rep.Items = append(rep.Items, Item{
					Kind: Deleted, Addr: rs.Addr, Type: a.ev.Type, ID: id, Actor: a.ev.Principal,
				})
			}
		case cloud.OpCreate:
			if rs == nil {
				got := verified[id]
				if got.Err != nil {
					if cloud.IsNotFound(got.Err) {
						continue // created and deleted between polls
					}
					return rep, got.Err
				}
				rep.Items = append(rep.Items, Item{
					Kind: Unmanaged, Type: a.ev.Type, ID: id, Actor: a.ev.Principal,
					CloudAttrs: got.Resource.Attrs,
				})
			}
		case cloud.OpUpdate:
			if rs == nil {
				continue // churn on an unmanaged resource
			}
			got := verified[id]
			if got.Err != nil {
				if cloud.IsNotFound(got.Err) {
					rep.Items = append(rep.Items, Item{
						Kind: Deleted, Addr: rs.Addr, Type: a.ev.Type, ID: id, Actor: a.ev.Principal,
					})
					continue
				}
				return rep, got.Err
			}
			changed := diffAttrs(a.ev.Type, rs.Attrs, got.Resource.Attrs)
			if len(changed) == 0 {
				continue // e.g. changed back before we looked
			}
			rep.Items = append(rep.Items, Item{
				Kind: Modified, Addr: rs.Addr, Type: a.ev.Type, ID: id,
				ChangedAttrs: changed, Actor: a.ev.Principal, CloudAttrs: got.Resource.Attrs,
			})
		}
	}
	sortItems(rep.Items)
	publishItems(ctx, rep.Method, rep.Items)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ScanAddrs is the reconciler's scoped verifier: it re-reads just the given
// state addresses from the cloud (fresh, batched like Watcher.Poll's verify
// pass) and reports which of them actually drifted. Where a full scan costs
// one paginated List per (type, region), a scoped scan costs one batched Get
// per MaxBatchItems chunk of suspects — the difference the RC experiment
// measures. Addresses absent from state are skipped (already repaired or
// never managed); unmanaged resources are by construction invisible to a
// scoped scan, which is why the reconciler keeps a low-frequency FullScan
// safety net.
func ScanAddrs(ctx context.Context, cl cloud.Interface, st *state.State, addrs []string) (*Report, error) {
	start := time.Now()
	rep := &Report{Method: "scoped", BaseSerial: st.Serial}

	var keys []cloud.ResourceKey
	var records []*state.ResourceState
	seen := map[string]bool{}
	for _, addr := range addrs {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		rs := st.Get(addr)
		if rs == nil {
			continue
		}
		keys = append(keys, cloud.ResourceKey{Type: rs.Type, ID: rs.ID})
		records = append(records, rs)
	}
	fctx := provider.WithFresh(ctx)
	for i := 0; i < len(keys); i += cloud.MaxBatchItems {
		end := i + cloud.MaxBatchItems
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[i:end]
		results, err := cl.BatchGet(fctx, chunk)
		rep.APICalls++
		if err != nil {
			return rep, fmt.Errorf("drift scoped scan: %w", err)
		}
		for j, rs := range records[i:end] {
			got := results[j]
			if got.Err != nil {
				if cloud.IsNotFound(got.Err) {
					rep.Items = append(rep.Items, Item{
						Kind: Deleted, Addr: rs.Addr, Type: rs.Type, ID: rs.ID,
					})
					continue
				}
				return rep, fmt.Errorf("drift scoped scan %s: %w", rs.Addr, got.Err)
			}
			if changed := diffAttrs(rs.Type, rs.Attrs, got.Resource.Attrs); len(changed) > 0 {
				rep.Items = append(rep.Items, Item{
					Kind: Modified, Addr: rs.Addr, Type: rs.Type, ID: rs.ID,
					ChangedAttrs: changed, CloudAttrs: got.Resource.Attrs,
				})
			}
		}
	}
	sortItems(rep.Items)
	publishItems(ctx, rep.Method, rep.Items)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Action is what reconciliation does with one drift item.
type Action int

// Reconciliation actions.
const (
	// Adopt updates the recorded state to match the cloud (the
	// "regenerate the IaC-level program to reflect the latest deployment"
	// path).
	Adopt Action = iota
	// Revert pushes the recorded state back to the cloud, undoing the
	// out-of-band change. It never deletes: an unmanaged resource is
	// notified, since it may be another project's.
	Revert
	// Notify leaves the drift in place for a human.
	Notify
)

var actionNames = map[Action]string{Adopt: "adopt", Revert: "revert", Notify: "notify"}

// String names the action.
func (a Action) String() string { return actionNames[a] }

// Policy chooses an action per drift item.
type Policy func(Item) Action

// AdoptAll and RevertAll are the two obvious policies.
func AdoptAll(Item) Action { return Adopt }

// RevertAll undoes every modification (deletions are re-created by the next
// apply; reconciliation removes them from state so the planner sees them)
// and notifies every unmanaged resource.
func RevertAll(Item) Action { return Revert }

// ReconcileResult summarizes a reconciliation pass. Items are keyed by
// address, or by cloud ID for unmanaged resources.
type ReconcileResult struct {
	State    *state.State
	Adopted  []string
	Reverted []string
	Notified []string
	Errors   map[string]error
	// Reverts are the cloud writes the Revert decisions need, as literal
	// plan changes under the same keys: an update back to the recorded
	// values for each modified item. Reconcile only plans them; the caller
	// applies them and lists each one that succeeds in Reverted.
	Reverts []*plan.Change
}

// Reconcile applies a policy to a drift report, returning an updated state
// and the cloud writes its reverts need. It touches no cloud.
func Reconcile(st *state.State, rep *Report, policy Policy) *ReconcileResult {
	out := &ReconcileResult{State: st.Clone(), Errors: map[string]error{}}
	for _, item := range rep.Items {
		key := item.Addr
		if key == "" {
			key = item.ID
		}
		switch policy(item) {
		case Adopt:
			switch item.Kind {
			case Deleted:
				out.State.Remove(item.Addr)
			case Modified:
				if rs := out.State.Get(item.Addr); rs != nil && item.CloudAttrs != nil {
					// The item carries attributes, not the generation they
					// were read at: the next refresh reads this one in full.
					cp := *rs
					cp.Attrs, cp.Generation, cp.UpdatedAt = item.CloudAttrs, 0, time.Now()
					out.State.Set(&cp)
				}
			case Unmanaged:
				// Adopting unmanaged resources into configuration is the
				// porter's job (§3.1); reconciliation records them under a
				// synthetic import address so they are at least tracked.
				addr := fmt.Sprintf("%s.imported_%s", item.Type, sanitize(item.ID))
				out.State.Set(&state.ResourceState{
					Addr: addr, Type: item.Type, ID: item.ID,
					Attrs: item.CloudAttrs, UpdatedAt: time.Now(),
				})
			}
			out.Adopted = append(out.Adopted, key)
		case Revert:
			switch item.Kind {
			case Modified:
				rs := out.State.Get(item.Addr)
				if rs == nil {
					continue
				}
				attrs := map[string]eval.Value{}
				var names []string
				schemaRS, _ := schema.LookupResource(item.Type)
				for _, name := range item.ChangedAttrs {
					if schemaRS != nil {
						if a := schemaRS.Attr(name); a == nil || a.Computed || a.ForceNew {
							continue
						}
					}
					if v, ok := rs.Attrs[name]; ok {
						attrs[name] = v
						names = append(names, name)
					}
				}
				if len(attrs) == 0 {
					out.Notified = append(out.Notified, key)
					continue
				}
				out.Reverts = append(out.Reverts, &plan.Change{
					Addr: key, Action: plan.ActionUpdate, Type: item.Type, Region: rs.Region,
					ID: item.ID, Before: item.CloudAttrs, After: attrs, ChangedAttrs: names,
				})
			case Deleted:
				// Cannot revert a deletion in place: drop it from state so
				// the next plan re-creates it.
				out.State.Remove(item.Addr)
				out.Reverted = append(out.Reverted, key)
			case Unmanaged:
				// Not this state's to delete: a full scan lists every
				// resource in the account, other projects' and tenants'
				// too. Importing one is Adopt's job, and the porter's.
				out.Notified = append(out.Notified, key)
			}
		default:
			out.Notified = append(out.Notified, key)
		}
	}
	return out
}

func sanitize(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
