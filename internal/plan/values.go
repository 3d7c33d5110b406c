// Package plan computes execution plans: it diffs the desired configuration
// against recorded state, decides create/update/replace/delete actions,
// builds the dependency graph over pending changes, and — the §3.3
// optimization — supports incremental planning that confines evaluation and
// state refresh to the impact scope of a change.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
)

// Addr decomposes an instance address.
type Addr struct {
	ModulePath string // "" for root
	Data       bool
	Type       string
	Name       string
	// Key is the instance key: nil, int, or string.
	Key any
}

// ParseAddr parses addresses like `module.net.aws_subnet.s[2]` or
// `data.aws_region.current`.
func ParseAddr(addr string) (Addr, error) {
	var out Addr
	rest := addr
	if idx := strings.IndexByte(rest, '['); idx >= 0 {
		if !strings.HasSuffix(rest, "]") || len(rest)-1 <= idx+1 {
			return out, fmt.Errorf("malformed address %q", addr)
		}
		keyRaw := rest[idx+1 : len(rest)-1]
		rest = rest[:idx]
		if strings.HasPrefix(keyRaw, `"`) {
			s, err := strconv.Unquote(keyRaw)
			if err != nil {
				return out, fmt.Errorf("malformed key in address %q", addr)
			}
			out.Key = s
		} else {
			n, err := strconv.Atoi(keyRaw)
			if err != nil {
				return out, fmt.Errorf("malformed index in address %q", addr)
			}
			out.Key = n
		}
	}
	parts := strings.Split(rest, ".")
	if len(parts) >= 2 && parts[0] == "module" {
		out.ModulePath = parts[1]
		parts = parts[2:]
	}
	if len(parts) >= 1 && parts[0] == "data" {
		out.Data = true
		parts = parts[1:]
	}
	if len(parts) != 2 {
		return out, fmt.Errorf("malformed address %q", addr)
	}
	out.Type, out.Name = parts[0], parts[1]
	return out, nil
}

// groupValue is one group's assembled value — a single object, an
// index-ordered list, or a key-addressed map — cached until Set writes a
// member.
type groupValue struct {
	value eval.Value
	valid bool
}

// ValueStore holds the evaluated object value of every resource instance and
// provides evaluation scopes that expose them to expressions. It is safe for
// concurrent use (the applier writes from many workers).
//
// Scopes are reference-driven: ScopeFor exposes exactly the groups the
// instance's declaration names, each taken from a per-group cache that Set
// invalidates for the written group only. A scope therefore costs
// O(references) plus the re-assembly of referenced groups written since
// their last read, so N scopes interleaved with N writes — a full plan —
// cost O(N) when dependencies are evaluated before their dependents.
//
// Which instances form a group is the expansion's Shape, shared by every
// store over the expansion; a store owns only its values and their cache.
type ValueStore struct {
	mu    sync.Mutex
	vals  map[string]eval.Value // instance addr -> object value
	ex    *config.Expansion
	shape *config.Shape
	cache []groupValue // by shape.Groups index

	// The root module's "module" root, rebuilt after a write inside any
	// child module.
	moduleRoot      eval.Value
	moduleRootValid bool
}

// NewValueStore builds a store for an expansion.
func NewValueStore(ex *config.Expansion) *ValueStore {
	shape := ex.Shape()
	return &ValueStore{
		vals:  make(map[string]eval.Value, len(ex.Instances)),
		ex:    ex,
		shape: shape,
		cache: make([]groupValue, len(shape.Groups)),
	}
}

// assembleLocked returns group gi's value, re-assembling it from the member
// values when a member was written since the last call.
func (vs *ValueStore) assembleLocked(gi int) eval.Value {
	c := &vs.cache[gi]
	if c.valid {
		return c.value
	}
	g := vs.shape.Groups[gi]
	members := vs.ex.Instances[g.Start:g.End]
	switch members[0].Key.(type) {
	case nil:
		c.value = vs.valueOfLocked(members[0])
	case int:
		maxIdx := -1
		for _, m := range members {
			if i := m.Key.(int); i > maxIdx {
				maxIdx = i
			}
		}
		list := make([]eval.Value, maxIdx+1)
		for i := range list {
			list[i] = eval.Unknown
		}
		for _, m := range members {
			list[m.Key.(int)] = vs.valueOfLocked(m)
		}
		c.value = eval.ListOf(list)
	case string:
		obj := make(map[string]eval.Value, len(members))
		for _, m := range members {
			obj[m.Key.(string)] = vs.valueOfLocked(m)
		}
		c.value = eval.Object(obj)
	}
	c.valid = true
	return c.value
}

func (vs *ValueStore) valueOfLocked(m *config.Instance) eval.Value {
	if v, ok := vs.vals[m.Addr]; ok {
		return v
	}
	return eval.Unknown
}

// exposeLocked binds the named groups of one module into scope under their
// type roots (and the "data" root). Addresses in other modules are skipped:
// they reach the root module through module outputs only.
func (vs *ValueStore) exposeLocked(scope *eval.Context, modulePath string, resourceAddrs []string) {
	managed := map[string]map[string]eval.Value{} // type -> name -> group value
	data := map[string]map[string]eval.Value{}
	names := func(isData bool, typ string) map[string]eval.Value {
		byType := managed
		if isData {
			byType = data
		}
		if byType[typ] == nil {
			byType[typ] = map[string]eval.Value{}
		}
		return byType[typ]
	}
	for _, addr := range resourceAddrs {
		if gi, ok := vs.shape.Index(addr); ok {
			if first := vs.ex.Instances[vs.shape.Groups[gi].Start]; first.ModulePath == modulePath {
				names(first.Mode == config.DataMode, first.Type)[first.Name] = vs.assembleLocked(gi)
			}
		} else if pa, err := ParseAddr(addr); err == nil && pa.ModulePath == modulePath {
			// An undeclared resource still binds its type root, so evaluation
			// reports the missing name rather than an undeclared type.
			names(pa.Data, pa.Type)
		}
	}
	for typ, byName := range managed {
		scope.Variables[typ] = eval.Object(byName)
	}
	dataRoot := make(map[string]eval.Value, len(data))
	for typ, byName := range data {
		dataRoot[typ] = eval.Object(byName)
	}
	scope.Variables["data"] = eval.Object(dataRoot)
}

// RootOutputs exposes the expansion's root output specs.
func (vs *ValueStore) RootOutputs() map[string]*config.OutputSpec {
	if vs.ex == nil || vs.ex.Outputs == nil {
		return nil
	}
	return vs.ex.Outputs
}

// OutputValue evaluates an output spec against current values.
func (vs *ValueStore) OutputValue(spec *config.OutputSpec) eval.Value {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.evaluateOutputLocked(spec)
}

// ResourceAddrOf strips the instance key from an address.
func ResourceAddrOf(addr string) string {
	if i := strings.IndexByte(addr, '['); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Set records the current object value of an instance and drops the
// assembled value of its group.
func (vs *ValueStore) Set(addr string, v eval.Value) {
	vs.mu.Lock()
	vs.vals[addr] = v
	if gi, ok := vs.shape.GroupOf(addr); ok {
		vs.cache[gi].valid = false
		if vs.ex.Instances[vs.shape.Groups[gi].Start].ModulePath != "" {
			vs.moduleRootValid = false
		}
	}
	vs.mu.Unlock()
}

// Get returns the instance's object value, or false.
func (vs *ValueStore) Get(addr string) (eval.Value, bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v, ok := vs.vals[addr]
	return v, ok
}

// ScopeFor builds the evaluation context for an instance: its configuration
// scope (vars, locals, count/each) extended with the groups its declaration
// references — its same-module dependencies, its own group when it names
// itself, and the module outputs when a root-module declaration names
// module.*.
func (vs *ValueStore) ScopeFor(inst *config.Instance) *eval.Context {
	scope := inst.Scope.Child()
	vs.mu.Lock()
	defer vs.mu.Unlock()

	refs := inst.DependsOn
	if inst.RefsSelf {
		refs = append([]string{inst.ResourceAddr()}, refs...)
	}
	vs.exposeLocked(scope, inst.ModulePath, refs)
	if inst.RefsModule {
		if !vs.moduleRootValid {
			calls := make(map[string]eval.Value, len(vs.ex.ModuleOutputs))
			for callName, outs := range vs.ex.ModuleOutputs {
				outVals := make(map[string]eval.Value, len(outs))
				for name, spec := range outs {
					outVals[name] = vs.evaluateOutputLocked(spec)
				}
				calls[callName] = eval.Object(outVals)
			}
			vs.moduleRoot = eval.Object(calls)
			vs.moduleRootValid = true
		}
		scope.Variables["module"] = vs.moduleRoot
	}
	return scope
}

// evaluateOutputLocked computes an output against current values, in a scope
// exposing the groups its expression references. Callers hold vs.mu.
func (vs *ValueStore) evaluateOutputLocked(spec *config.OutputSpec) eval.Value {
	scope := spec.Scope.Child()
	vs.exposeLocked(scope, spec.ModulePath, spec.Deps)
	v, diags := eval.Evaluate(spec.Expr, scope)
	if diags.HasErrors() {
		return eval.Unknown
	}
	return v
}

// EvaluateAttrs computes the concrete attribute values of an instance under
// the current value store, returning per-attribute diagnostics.
func (vs *ValueStore) EvaluateAttrs(inst *config.Instance) (map[string]eval.Value, hcl.Diagnostics) {
	scope := vs.ScopeFor(inst)
	out := make(map[string]eval.Value, len(inst.Attrs))
	var diags hcl.Diagnostics
	for name, expr := range inst.Attrs {
		v, d := eval.Evaluate(expr, scope)
		diags = diags.Extend(d)
		if d.HasErrors() {
			continue
		}
		out[name] = v
	}
	return out, diags
}
