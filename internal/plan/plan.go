package plan

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/graph"
	"cloudless/internal/hcl"
	"cloudless/internal/schema"
	"cloudless/internal/state"
	"cloudless/internal/telemetry"
)

// Action is what the applier must do for one instance.
type Action int

// Actions.
const (
	ActionNoop Action = iota
	ActionCreate
	ActionUpdate
	ActionReplace
	ActionDelete
)

var actionNames = map[Action]string{
	ActionNoop:    "no-op",
	ActionCreate:  "create",
	ActionUpdate:  "update",
	ActionReplace: "replace",
	ActionDelete:  "delete",
}

// String names the action.
func (a Action) String() string { return actionNames[a] }

// Change is one planned operation on one resource instance. Like the state
// records its Before comes from, a Change is immutable once recorded in a
// plan: the replan cache and every plan replayed from it share its maps and
// slices.
type Change struct {
	Addr   string
	Action Action
	Type   string
	Region string
	// ID is the existing cloud ID for update/replace/delete.
	ID string
	// Before is the prior attribute set (nil for create).
	Before map[string]eval.Value
	// After is the desired attribute set; values referencing not-yet-created
	// resources are Unknown and resolve during apply.
	After map[string]eval.Value
	// ChangedAttrs lists attributes that differ, sorted.
	ChangedAttrs []string
	// ForcedBy lists the ForceNew attributes that escalate to replacement.
	ForcedBy []string
	// Instance is the configuration instance (nil for pure deletes).
	Instance *config.Instance
	// Deps are resource-level dependency addresses (from config for
	// create/update, from state for delete).
	Deps []string
}

// Plan is the full execution plan.
type Plan struct {
	Changes map[string]*Change
	// Graph covers exactly the non-noop changes.
	Graph *graph.Graph
	// Values is the value store seeded during planning; the applier
	// continues filling it.
	Values *ValueStore
	// PriorState is the (possibly refreshed) state planning ran against.
	PriorState *state.State
	// BaseSerial is the golden-state serial the plan is pinned at: the
	// serial of the snapshot planning read. Apply commits carry it so a
	// commit over a staler base than the current state aborts with a typed
	// conflict instead of silently clobbering concurrent work (§3.4).
	BaseSerial int
	// Stats.
	Creates, Updates, Replaces, Deletes, Noops int
	// RefreshReads counts cloud Get calls spent refreshing state.
	RefreshReads int
	// EvaluatedInstances counts instances whose attributes were evaluated
	// (the incremental planner's savings show up here).
	EvaluatedInstances int
}

// Options control planning.
type Options struct {
	// Refresh re-reads every (in-scope) state entry from the cloud before
	// diffing. The baseline always refreshes everything.
	Refresh bool
	// Cloud is required when Refresh is set.
	Cloud cloud.Interface
	// ImpactScope, when non-nil, confines planning to the given
	// resource-level addresses plus their transitive dependents; everything
	// else is assumed unchanged (the §3.3 incremental optimization).
	ImpactScope []string
	// Cache, when non-nil, makes the plan an incremental replan: only
	// declarations whose fingerprint changed, addresses whose recorded state
	// moved, and their transitive dependents are re-evaluated; everything
	// else replays its memoized diff from the previous plan through this
	// cache. The resulting plan is byte-identical to a full replan. Composes
	// with ImpactScope (intersection) and with Refresh (a refresh that
	// observes drift dirties exactly the drifted subtrees).
	Cache *ReplanCache
}

// Compute builds a plan for the expansion against the prior state.
func Compute(ctx context.Context, ex *config.Expansion, prior *state.State, opts Options) (*Plan, hcl.Diagnostics) {
	var diags hcl.Diagnostics
	if prior == nil {
		prior = state.New()
	}
	p := &Plan{
		Changes:    map[string]*Change{},
		Graph:      graph.New(),
		Values:     NewValueStore(ex),
		BaseSerial: prior.Serial,
	}
	ctx, span := telemetry.StartSpan(ctx, "plan.compute")
	defer func() {
		span.SetAttr("base_serial", p.BaseSerial)
		span.SetAttr("refresh_reads", p.RefreshReads)
		span.SetAttr("evaluated_instances", p.EvaluatedInstances)
		span.SetAttr("creates", p.Creates)
		span.SetAttr("updates", p.Updates)
		span.SetAttr("replaces", p.Replaces)
		span.SetAttr("deletes", p.Deletes)
		span.SetAttr("noops", p.Noops)
		span.End()
		if rec := telemetry.FromContext(ctx); rec != nil {
			reg := rec.Metrics()
			reg.Counter("plan.computes").Inc()
			reg.Counter("plan.refresh_reads").Add(int64(p.RefreshReads))
			reg.Counter("plan.evaluated_instances").Add(int64(p.EvaluatedInstances))
		}
	}()

	// Resource-level dependency graph over configuration: its topological
	// order is the evaluation order, its closure the impact scope. Both come
	// with the expansion's shape, built once for every plan over it.
	shape := ex.Shape()
	if shape.Err != nil {
		return p, diags.Append(hcl.Errorf(hcl.Range{}, "configuration has a dependency cycle: %s", shape.Err))
	}
	cfgGraph, order := shape.Graph, shape.Order

	// Impact scope: the set of resource-level addresses we must (re)plan.
	var scope map[string]struct{}
	if opts.ImpactScope != nil {
		scope = cfgGraph.ImpactScope(opts.ImpactScope...)
	}
	// Impact-scope size vs total graph size is the headline incremental-
	// planning metric (§3.3): the fraction of the graph a change touches.
	scopeSize := cfgGraph.Len()
	if scope != nil {
		scopeSize = len(scope)
	}
	span.SetAttr("graph_size", cfgGraph.Len())
	span.SetAttr("scope_size", scopeSize)
	if rec := telemetry.FromContext(ctx); rec != nil {
		reg := rec.Metrics()
		reg.Gauge("plan.graph_size").Set(float64(cfgGraph.Len()))
		reg.Gauge("plan.scope_size").Set(float64(scopeSize))
	}
	inScope := func(resourceAddr string) bool {
		if scope == nil {
			return true
		}
		_, ok := scope[resourceAddr]
		return ok
	}

	// Refresh. The full planner refreshes every state entry; the
	// incremental planner only those in scope. The Gets fan out through the
	// provider runtime as fresh reads (refresh exists to observe
	// out-of-band change, so cached values would defeat it); results are
	// folded back in address order so diagnostics stay deterministic. Each
	// read is conditional on the generation the record holds: an unchanged
	// resource comes back NotModified and its record is kept as it is.
	prior = prior.Clone()
	if opts.Refresh {
		if opts.Cloud == nil {
			return p, diags.Append(hcl.Errorf(hcl.Range{}, "refresh requested without a cloud connection"))
		}
		var addrs []string
		for _, addr := range prior.Addrs() {
			// A cached replan refreshes everything: refresh is how drift is
			// observed, and the cache turns an observed drift into a dirty
			// subtree, so narrowing the reads would blind the invalidation.
			// The reads are batched, so a full refresh is round-trip-cheap.
			if opts.Cache != nil || inScope(ResourceAddrOf(addr)) {
				addrs = append(addrs, addr)
			}
		}
		// Refresh reads go out as batched gets: one wire call per
		// MaxBatchItems chunk instead of one per resource, so refreshing a
		// 10k-entry state costs ~40 round-trips, not 10k.
		keys := make([]cloud.ResourceKey, len(addrs))
		for i, addr := range addrs {
			rs := prior.Get(addr)
			keys[i] = cloud.ResourceKey{Type: rs.Type, ID: rs.ID, IfGeneration: rs.Generation}
		}
		results := make([]cloud.BatchResult, 0, len(addrs))
		for start := 0; start < len(keys); start += cloud.MaxBatchItems {
			end := start + cloud.MaxBatchItems
			if end > len(keys) {
				end = len(keys)
			}
			batch, err := opts.Cloud.BatchGet(ctx, keys[start:end])
			if err != nil {
				return p, diags.Append(hcl.Errorf(hcl.Range{}, "refresh: %s", err))
			}
			results = append(results, batch...)
		}
		p.RefreshReads = len(addrs)
		for i, addr := range addrs {
			rs := prior.Get(addr)
			cur, err := results[i].Resource, results[i].Err
			switch {
			case cloud.IsNotFound(err):
				prior.Remove(addr) // gone out-of-band; will be recreated
			case err != nil:
				diags = diags.Append(hcl.Errorf(hcl.Range{}, "refresh %s: %s", addr, err))
			case results[i].NotModified:
				// The record already holds what the cloud holds.
			default:
				// Records are shared with the caller's state: fold the read
				// into a copy.
				cp := *rs
				cp.Attrs, cp.Region, cp.Generation = cur.Attrs, cur.Region, cur.Generation
				prior.Set(&cp)
			}
		}
		if diags.HasErrors() {
			return p, diags
		}
	}
	p.PriorState = prior

	// Incremental replan: fingerprint the declarations and ask the cache for
	// the dirty seeds, then close over dependents. A nil dirtyScope means
	// everything is dirty (no cache, or a cold one).
	var declHashes map[string]uint64
	var dirtyScope map[string]struct{}
	if opts.Cache != nil {
		declHashes = ex.DeclHashes()
		if seeds, cold := opts.Cache.dirtySeeds(declHashes, ex, prior); !cold {
			dirtyScope = cfgGraph.ImpactScope(seeds...)
		}
	}
	inDirty := func(resourceAddr string) bool {
		if dirtyScope == nil {
			return true
		}
		_, ok := dirtyScope[resourceAddr]
		return ok
	}

	// Evaluate resource addresses in dependency order, on the calling
	// goroutine: a node is microseconds of CPU, so a pool costs every plan
	// more than it returns (DESIGN S26). Evaluation diagnostics are kept per
	// resource and reported in address order, so what a caller reads does not
	// depend on where in the order a bad resource falls.
	outcomes := make(map[string]replanOutcome, len(order))
	evalDiags := map[string]hcl.Diagnostics{}
	for _, resourceAddr := range order {
		insts := ex.InstancesOf(resourceAddr)

		// Clean resource under a warm cache: replay the memoized diffs and
		// planned values instead of re-evaluating. The replayed records are
		// exactly what evaluation would produce, so dirty dependents read
		// identical upstream values and the plan is byte-identical.
		if opts.Cache != nil && inScope(resourceAddr) && !inDirty(resourceAddr) {
			if entries, ok := opts.Cache.replay(insts); ok {
				for i, inst := range insts {
					if inst.Mode == config.DataMode {
						p.Values.Set(inst.Addr, dataSourceValue(inst, ex))
						continue
					}
					e := entries[i]
					if e.hasValue {
						p.Values.Set(inst.Addr, e.value)
					}
					if e.change != nil {
						// Only the instance differs between expansions; the
						// maps and slices stay shared with the cache.
						ch := *e.change
						ch.Instance = inst
						p.record(&ch)
					}
				}
				outcomes[resourceAddr] = outcomeReplayed
				continue
			}
		}

		outcome := outcomeEvaluated
		for _, inst := range insts {
			if inst.Mode == config.DataMode {
				// Data sources are read locally at plan time.
				p.Values.Set(inst.Addr, dataSourceValue(inst, ex))
				continue
			}
			prior_ := prior.Get(inst.Addr)
			if !inScope(resourceAddr) {
				// Outside the impact scope: assume unchanged; expose the
				// recorded state value.
				outcome = outcomeSkipped
				if prior_ != nil {
					p.Values.Set(inst.Addr, eval.Object(prior_.Attrs))
					p.Noops++
				}
				continue
			}
			change, d := p.diffInstance(inst, prior_)
			if len(d) > 0 {
				evalDiags[resourceAddr] = evalDiags[resourceAddr].Extend(d)
			}
			if d.HasErrors() {
				outcome = outcomeFailed
				continue
			}
			p.EvaluatedInstances++
			p.record(change)
		}
		outcomes[resourceAddr] = outcome
	}
	bad := make([]string, 0, len(evalDiags))
	for resourceAddr := range evalDiags {
		bad = append(bad, resourceAddr)
	}
	sort.Strings(bad)
	for _, resourceAddr := range bad {
		diags = diags.Extend(evalDiags[resourceAddr])
	}

	// Deletions: state entries with no configuration instance. Recording is
	// order-free, so the entries are visited in map order, unsorted.
	for addr, rs := range prior.Resources {
		if _, exists := ex.ByAddr[addr]; exists {
			continue
		}
		if scope != nil && !inScope(ResourceAddrOf(addr)) {
			// An orphan outside the scope is still an orphan; incremental
			// plans pick it up only when scoped to it. Skip.
			continue
		}
		p.record(&Change{
			Addr: addr, Action: ActionDelete, Type: rs.Type, Region: rs.Region,
			ID: rs.ID, Before: rs.Attrs, Deps: rs.Dependencies,
		})
	}

	if err := p.buildGraph(); err != nil {
		diags = diags.Append(hcl.Errorf(hcl.Range{}, "plan graph: %s", err))
	}

	// Seed the cache from this plan so the next Compute replays what did not
	// move. An errored plan never commits: its outcomes may be partial.
	if opts.Cache != nil && !diags.HasErrors() {
		opts.Cache.commit(declHashes, prior, ex, outcomes, p)
		st := opts.Cache.LastStats()
		span.SetAttr("replan_invalidation", st.Invalidation)
		span.SetAttr("replan_replayed", st.Replayed)
		span.SetAttr("replan_evaluated", st.Evaluated)
	}
	return p, diags
}

// diffInstance evaluates desired attributes and compares with prior state.
func (p *Plan) diffInstance(inst *config.Instance, prior *state.ResourceState) (*Change, hcl.Diagnostics) {
	rs, _ := schema.LookupResource(inst.Type)
	desired, diags := p.Values.EvaluateAttrs(inst)
	if diags.HasErrors() {
		return nil, diags
	}
	// Apply schema defaults so the diff compares what the cloud will hold.
	if rs != nil {
		for name, a := range rs.Attrs {
			if _, set := desired[name]; !set && a.HasDefault {
				desired[name] = a.Default
			}
		}
	}

	ch := &Change{
		Addr: inst.Addr, Type: inst.Type, Region: inst.Region,
		After: desired, Instance: inst, Deps: inst.DependsOn,
	}

	if prior == nil {
		ch.Action = ActionCreate
		// Expose the post-create value: configured attrs plus unknown
		// computed attributes.
		p.Values.Set(inst.Addr, postApplyValue(rs, desired, nil))
		return ch, diags
	}

	ch.ID = prior.ID
	ch.Before = prior.Attrs
	for name, want := range desired {
		have, exists := prior.Attrs[name]
		// An unknown value comes only from a referent this plan creates or
		// replaces, so it will change: on a ForceNew attribute that forces
		// replacement; elsewhere the applier re-checks it once it resolves.
		if want.IsUnknown() || !exists || !have.Equal(want) {
			ch.ChangedAttrs = append(ch.ChangedAttrs, name)
			if a := rs.Attr(name); a != nil && a.ForceNew {
				ch.ForcedBy = append(ch.ForcedBy, name)
			}
		}
	}
	sort.Strings(ch.ChangedAttrs)
	sort.Strings(ch.ForcedBy)

	switch {
	case len(ch.ChangedAttrs) == 0:
		ch.Action = ActionNoop
		p.Values.Set(inst.Addr, eval.Object(prior.Attrs))
	case len(ch.ForcedBy) > 0:
		ch.Action = ActionReplace
		p.Values.Set(inst.Addr, postApplyValue(rs, desired, nil))
	default:
		ch.Action = ActionUpdate
		// Computed attrs keep their current values across in-place update.
		p.Values.Set(inst.Addr, postApplyValue(rs, desired, prior.Attrs))
	}
	return ch, diags
}

// postApplyValue predicts the instance's object value after apply: desired
// attributes plus computed attributes (known from prior state for updates,
// unknown otherwise).
func postApplyValue(rs *schema.ResourceSchema, desired, priorAttrs map[string]eval.Value) eval.Value {
	obj := make(map[string]eval.Value, len(desired)+4)
	for k, v := range desired {
		obj[k] = v
	}
	if rs != nil {
		for name, a := range rs.Attrs {
			if !a.Computed {
				continue
			}
			if priorAttrs != nil {
				if v, ok := priorAttrs[name]; ok {
					obj[name] = v
					continue
				}
			}
			obj[name] = eval.Unknown
		}
	}
	return eval.Object(obj)
}

func (p *Plan) record(ch *Change) {
	if ch == nil {
		return
	}
	p.Changes[ch.Addr] = ch
	switch ch.Action {
	case ActionCreate:
		p.Creates++
	case ActionUpdate:
		p.Updates++
	case ActionReplace:
		p.Replaces++
	case ActionDelete:
		p.Deletes++
	case ActionNoop:
		p.Noops++
	}
}

// New assembles a plan from changes against prior: it records and counts
// each change and wires the execution graph with the rule Compute uses. Every
// plan that does not come from configuration — destroy, rollback, drift
// revert, a guarded apply's wave — is built here. A change with no
// configuration Instance is literal: the applier sends its After attributes.
// The plan comes back even when its graph has a cycle, which the apply walk
// then reports as a failure.
func New(prior *state.State, changes []*Change) (*Plan, error) {
	p := &Plan{
		Changes:    make(map[string]*Change, len(changes)),
		Graph:      graph.New(),
		PriorState: prior,
		BaseSerial: prior.Serial,
	}
	for _, ch := range changes {
		p.record(ch)
	}
	return p, p.buildGraph()
}

// buildGraph wires the execution graph over the non-noop changes, and is
// the one place dependency edges are made: each change waits for every
// active instance of the resources it depends on. A delete of an instance
// that others still depend on (shrinking count) therefore waits for those
// dependents' updates, and a create referencing a deleted resource is a
// configuration error the cloud surfaces. It fails when the graph has a
// cycle.
func (p *Plan) buildGraph() error {
	instancesOf := map[string][]string{}
	for addr := range p.Changes {
		r := ResourceAddrOf(addr)
		instancesOf[r] = append(instancesOf[r], addr)
	}
	for addr, ch := range p.Changes {
		if ch.Action == ActionNoop {
			continue
		}
		p.Graph.AddNode(addr)
		for _, depResource := range ch.Deps {
			for _, depInst := range instancesOf[depResource] {
				depCh := p.Changes[depInst]
				if depInst == addr || depCh.Action == ActionNoop {
					continue // AddEdge's only error is a self-edge
				}
				if ch.Action == ActionDelete && depCh.Action == ActionDelete {
					// Destroy order is the reverse of create order: the
					// dependent (this resource's user) must go first, so
					// between two deletes the edge flips.
					_ = p.Graph.AddEdge(depInst, addr)
					continue
				}
				_ = p.Graph.AddEdge(addr, depInst)
			}
		}
	}
	return p.Graph.Validate()
}

// PendingCount returns the number of operations the applier will perform.
func (p *Plan) PendingCount() int {
	return p.Creates + p.Updates + p.Replaces + p.Deletes
}

// Costs returns the estimated duration of each graph node from the schema's
// latency model, for critical-path scheduling.
func (p *Plan) Costs() func(addr string) time.Duration {
	return func(addr string) time.Duration {
		ch, ok := p.Changes[addr]
		if !ok {
			return 0
		}
		rs, ok := schema.LookupResource(ch.Type)
		if !ok {
			return time.Second
		}
		switch ch.Action {
		case ActionCreate:
			return rs.ProvisionTime
		case ActionUpdate:
			return rs.UpdateTime
		case ActionReplace:
			return rs.DeleteTime + rs.ProvisionTime
		case ActionDelete:
			return rs.DeleteTime
		default:
			return 0
		}
	}
}

// Summary renders a one-line plan summary like "3 to add, 1 to change,
// 0 to destroy".
func (p *Plan) Summary() string {
	return fmt.Sprintf("%d to add, %d to change, %d to replace, %d to destroy (%d unchanged)",
		p.Creates, p.Updates, p.Replaces, p.Deletes, p.Noops)
}

// dataSourceValue evaluates a data source locally: the simulated providers'
// data sources are pure functions of provider configuration.
func dataSourceValue(inst *config.Instance, ex *config.Expansion) eval.Value {
	region := inst.Region
	switch inst.Type {
	case "aws_region", "azure_location":
		return eval.Object(map[string]eval.Value{"name": eval.String(region)})
	case "aws_availability_zones":
		return eval.Object(map[string]eval.Value{
			"region": eval.String(region),
			"names":  eval.Strings(region+"a", region+"b", region+"c"),
		})
	default:
		rs, ok := schema.LookupResource(inst.Type)
		if !ok {
			return eval.Unknown
		}
		obj := map[string]eval.Value{}
		for name, a := range rs.Attrs {
			if a.Computed {
				obj[name] = eval.String(name + "-" + region)
			}
		}
		return eval.Object(obj)
	}
}
