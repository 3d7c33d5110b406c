package config

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/schema"
)

// Instance is one concrete resource instance after expansion: a single
// cloud object to be planned and applied.
type Instance struct {
	// Addr uniquely identifies the instance, e.g. "aws_vpc.main",
	// "aws_subnet.s[2]", `aws_vm.web["blue"]`, "data.aws_region.current",
	// or "module.net.aws_vpc.main".
	Addr string
	// ModulePath is "" for the root module or the module call name.
	ModulePath string
	Mode       Mode
	Type       string
	Name       string
	// Scope is the evaluation context carrying var/local/count/each
	// bindings. Resource values are layered on top by the planner.
	Scope *eval.Context
	// Attrs are the configured attribute expressions.
	Attrs     map[string]hcl.Expression
	AttrRange map[string]hcl.Range
	// DependsOn lists resource-level addresses (no instance index) this
	// instance depends on, sorted and de-duplicated.
	DependsOn []string
	// RefsSelf reports that the declaration names its own resource
	// (aws_subnet.s[0].id from inside aws_subnet.s). DependsOn omits that
	// edge, so the planner needs this to expose the instance's own group.
	RefsSelf bool
	// RefsModule reports that a root-module declaration names module.*
	// (child modules cannot see module outputs).
	RefsModule bool
	DeclRange  hcl.Range
	// Provider is the owning provider's name.
	Provider string
	// Region is the resolved region for the instance: explicit attribute,
	// then provider configuration, then provider default. Explicit
	// region/location attributes that reference resources stay unresolved
	// here and are re-derived at apply time.
	Region string
	// Key is the instance key: nil, the count index (int) or the for_each
	// key (string).
	Key any

	// decl is the declaration the instance expands.
	decl *Resource
}

// ResourceAddr returns the instance's resource-level address (no index).
func (i *Instance) ResourceAddr() string {
	if idx := strings.IndexByte(i.Addr, '['); idx >= 0 {
		return i.Addr[:idx]
	}
	return i.Addr
}

// OutputSpec is an evaluated-later output: a root output or a module output
// consulted by module.<name>.<output> references.
type OutputSpec struct {
	ModulePath string
	Name       string
	Expr       hcl.Expression
	Scope      *eval.Context
	Deps       []string
	Sensitive  bool
	DeclRange  hcl.Range
}

// ProviderSettings is the evaluated provider configuration.
type ProviderSettings struct {
	Name   string
	Region string
	Attrs  map[string]eval.Value
}

// Expansion is the fully-expanded configuration: every instance, output,
// and provider setting, ready for planning. It is immutable once built, and
// expansions derived from it by Reexpand share its unchanged instances,
// outputs and provider settings.
type Expansion struct {
	// Instances are sorted by address. The instances of one resource-level
	// address sit back to back.
	Instances []*Instance
	ByAddr    map[string]*Instance
	// Outputs are the root module's outputs.
	Outputs map[string]*OutputSpec
	// ModuleOutputs maps module call name -> output name -> spec.
	ModuleOutputs map[string]map[string]*OutputSpec
	Providers     map[string]ProviderSettings

	// root is the module the expansion expands, for Reexpand.
	root *Module

	// mu guards what is derived from the instances on first use and then
	// shared by every plan over the expansion.
	mu     sync.Mutex
	shape  *Shape
	hashes map[string]uint64
}

// InstancesOf returns the instances of a resource-level address, sorted.
func (ex *Expansion) InstancesOf(resourceAddr string) []*Instance {
	sh := ex.Shape()
	gi, ok := sh.index[resourceAddr]
	if !ok {
		return nil
	}
	g := sh.Groups[gi]
	return ex.Instances[g.Start:g.End:g.End]
}

// Expand evaluates the root module with the given variable values and
// produces the instance set. The resolver loads child modules; it may be nil
// when the configuration has no module calls.
func Expand(root *Module, vars map[string]eval.Value, resolver ModuleResolver) (*Expansion, hcl.Diagnostics) {
	return expand(root, vars, resolver, nil, nil)
}

// Reexpand returns what Expand(root, vars, resolver) returns for the module
// ex expands, given that vars differ from the values ex was expanded with
// only in the variables named by changed. Only the declarations and outputs
// that read a changed variable are expanded again; the rest, and ex's
// provider settings and module expansions, are shared. When a changed
// variable can reach every declaration — through a local, a provider block,
// a module argument, or an expression that reads var or local without a
// static attribute name — everything is expanded again, as by Expand. ex
// must come from Expand or Reexpand.
func (ex *Expansion) Reexpand(vars map[string]eval.Value, resolver ModuleResolver, changed []string) (*Expansion, hcl.Diagnostics) {
	return expand(ex.root, vars, resolver, ex, changed)
}

// expand is the one expander. With no prev every declaration is expanded;
// with prev only those root.readers marks dirty for changed, over a copy of
// prev from which their old instances and outputs were taken out.
func expand(root *Module, vars map[string]eval.Value, resolver ModuleResolver, prev *Expansion, changed []string) (*Expansion, hcl.Diagnostics) {
	ex := &Expansion{
		ByAddr:        map[string]*Instance{},
		Outputs:       map[string]*OutputSpec{},
		ModuleOutputs: map[string]map[string]*OutputSpec{},
		Providers:     map[string]ProviderSettings{},
		root:          root,
	}
	var diags hcl.Diagnostics

	rootScope, d := moduleScope(root, vars, hcl.Range{})
	diags = diags.Extend(d)
	if diags.HasErrors() {
		return ex, diags
	}

	var dirty *dirtySet // nil: every declaration
	if prev != nil {
		dirty = root.readers().dirty(changed)
	}
	var kept, old []*Instance
	if dirty == nil {
		diags = diags.Extend(ex.expandModules(root, rootScope, resolver))
	} else {
		ex.Providers, ex.ModuleOutputs = prev.Providers, prev.ModuleOutputs
		kept, old = ex.keep(prev, dirty)
	}

	diags = diags.Extend(ex.expandModule(root, rootScope, "", dirty))

	fresh := ex.Instances
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Addr < fresh[j].Addr })
	ex.Instances = mergeByAddr(kept, fresh)
	if dirty != nil {
		ex.inherit(prev, old, fresh)
	}
	return ex, diags
}

// expandModules evaluates the root module's provider settings and expands
// its child modules.
func (ex *Expansion) expandModules(root *Module, rootScope *eval.Context, resolver ModuleResolver) hcl.Diagnostics {
	var diags hcl.Diagnostics
	// Provider settings come from the root module only; child modules
	// inherit them (per-module providers are future work, as in early
	// Terraform).
	for _, name := range schema.Providers() {
		prov, _ := schema.LookupProvider(name)
		settings := ProviderSettings{Name: name, Region: prov.DefaultRegion, Attrs: map[string]eval.Value{}}
		if cfg, ok := root.Providers[name]; ok {
			for attr, expr := range cfg.Attrs {
				v, d := eval.Evaluate(expr, rootScope)
				diags = diags.Extend(d)
				if d.HasErrors() {
					continue
				}
				settings.Attrs[attr] = v
				if (attr == "region" || attr == "location") && v.Kind() == eval.KindString {
					settings.Region = v.AsString()
				}
			}
		}
		ex.Providers[name] = settings
	}

	// Child modules are expanded before the root module so that root
	// references to module outputs can resolve against the recorded
	// output specs.
	for _, callName := range sortedCallNames(root.Calls) {
		call := root.Calls[callName]
		if resolver == nil {
			diags = diags.Append(hcl.Errorf(call.DeclRange,
				"module %q cannot be loaded: no module resolver configured", call.Name))
			continue
		}
		files, err := resolver.Resolve(call.Source)
		if err != nil {
			diags = diags.Append(hcl.Errorf(call.DeclRange, "module %q: %s", call.Name, err))
			continue
		}
		child, d := Load(files)
		diags = diags.Extend(d)
		if d.HasErrors() {
			continue
		}
		if len(child.Calls) > 0 {
			diags = diags.Append(hcl.Errorf(call.DeclRange,
				"module %q: nested module calls are not supported (one level of modules only)", call.Name))
			continue
		}
		// Module arguments must be derivable before deployment: they may
		// reference variables and locals but not resources.
		args := map[string]eval.Value{}
		for argName, expr := range call.Args {
			for _, tr := range expr.Variables() {
				root := tr.RootName()
				if root != "var" && root != "local" {
					diags = diags.Append(hcl.Errorf(expr.Range(),
						"module argument %q may only reference variables and locals, not %q", argName, root))
				}
			}
			v, d := eval.Evaluate(expr, rootScope)
			diags = diags.Extend(d)
			args[argName] = v
		}
		childScope, d := moduleScope(child, args, call.DeclRange)
		diags = diags.Extend(d)
		if d.HasErrors() {
			continue
		}
		diags = diags.Extend(ex.expandModule(child, childScope, call.Name, nil))
	}
	return diags
}

// keep starts a re-expansion from prev: it takes over prev's instances and
// outputs except the dirty declarations' and outputs', which the re-expansion
// replaces. It returns the instances kept and those taken out, both sorted.
func (ex *Expansion) keep(prev *Expansion, dirty *dirtySet) (kept, old []*Instance) {
	kept = make([]*Instance, 0, len(prev.Instances))
	ex.ByAddr = make(map[string]*Instance, len(prev.ByAddr))
	for _, inst := range prev.Instances {
		if inst.ModulePath == "" && dirty.decls[inst.decl] {
			old = append(old, inst)
			continue
		}
		kept = append(kept, inst)
		ex.ByAddr[inst.Addr] = inst
	}
	for name, spec := range prev.Outputs {
		if !dirty.outputs[name] {
			ex.Outputs[name] = spec
		}
	}
	return kept, old
}

// inherit carries prev's derived structure over to a re-expansion whose
// dirty declarations had the old instances and now have the fresh ones: the
// shape when no instance address moved, and the decl hashes of every clean
// declaration.
func (ex *Expansion) inherit(prev *Expansion, old, fresh []*Instance) {
	prev.mu.Lock()
	shape, hashes := prev.shape, prev.hashes
	prev.mu.Unlock()
	if shape != nil && sameAddrs(old, fresh) {
		ex.shape = shape
	}
	if hashes != nil {
		ex.hashes = maps.Clone(hashes)
		for _, inst := range old {
			delete(ex.hashes, inst.ResourceAddr())
		}
		hashDecls(fresh, ex.hashes)
	}
}

// sameAddrs reports whether two address-sorted instance lists name the same
// addresses.
func sameAddrs(a, b []*Instance) bool {
	return slices.EqualFunc(a, b, func(x, y *Instance) bool { return x.Addr == y.Addr })
}

// mergeByAddr merges two address-sorted instance lists.
func mergeByAddr(a, b []*Instance) []*Instance {
	if len(a) == 0 {
		return b
	}
	out := make([]*Instance, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].Addr < b[0].Addr {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// moduleScope binds variables and locals for one module.
func moduleScope(m *Module, vars map[string]eval.Value, at hcl.Range) (*eval.Context, hcl.Diagnostics) {
	var diags hcl.Diagnostics
	scope := eval.NewContext()

	varObj := map[string]eval.Value{}
	for name, decl := range m.Variables {
		v, given := vars[name]
		switch {
		case given:
			if err := typeCheckValue(v, decl.Type); err != nil {
				diags = diags.Append(hcl.Errorf(decl.DeclRange,
					"invalid value for variable %q: %s", name, err))
			}
			varObj[name] = v
		case decl.HasDefault:
			varObj[name] = decl.Default
		default:
			diags = diags.Append(hcl.Errorf(decl.DeclRange,
				"variable %q has no value and no default", name))
		}
	}
	for name := range vars {
		if _, declared := m.Variables[name]; !declared {
			diags = diags.Append(hcl.Errorf(at, "value provided for undeclared variable %q", name))
		}
	}
	scope.Variables["var"] = eval.Object(varObj)

	// Locals may reference variables and other locals; evaluate to a fixed
	// point and report cycles. Resources are deliberately out of scope for
	// locals so the instance set is computable before deployment.
	localObj := map[string]eval.Value{}
	remaining := map[string]*Local{}
	for name, l := range m.Locals {
		for _, tr := range l.Expr.Variables() {
			if r := tr.RootName(); r != "var" && r != "local" {
				diags = diags.Append(hcl.Errorf(l.Expr.Range(),
					"local %q may only reference variables and other locals, not %q", name, r))
			}
		}
		remaining[name] = l
	}
	if diags.HasErrors() {
		return scope, diags
	}
	for len(remaining) > 0 {
		progressed := false
		for name, l := range remaining {
			ready := true
			for _, tr := range l.Expr.Variables() {
				if tr.RootName() != "local" || len(tr) < 2 {
					continue
				}
				attr, ok := tr[1].(hcl.TraverseAttr)
				if !ok {
					continue
				}
				if _, done := localObj[attr.Name]; !done {
					if _, pending := remaining[attr.Name]; pending {
						ready = false
						break
					}
				}
			}
			if !ready {
				continue
			}
			scope.Variables["local"] = eval.Object(localObj)
			v, d := eval.Evaluate(l.Expr, scope)
			diags = diags.Extend(d)
			localObj[name] = v
			delete(remaining, name)
			progressed = true
		}
		if !progressed {
			var names []string
			for name := range remaining {
				names = append(names, name)
			}
			sort.Strings(names)
			diags = diags.Append(hcl.Errorf(m.Locals[names[0]].DeclRange,
				"dependency cycle among locals: %s", strings.Join(names, ", ")))
			break
		}
	}
	scope.Variables["local"] = eval.Object(localObj)
	return scope, diags
}

// stdlib is the function library of a narrowed scope, shared read-only.
var stdlib = eval.Stdlib()

// narrowScope returns a root scope that binds only the variables and locals
// refs names, with the values scope binds. A re-expanded declaration or
// output keeps it in place of scope: every re-expansion binds a new scope
// whose var object holds every variable, and a declaration that kept it
// would keep that copy alive until it is itself re-expanded, one copy per
// declaration an edit stream has touched.
func narrowScope(scope *eval.Context, refs []scopeRef) *eval.Context {
	bound := map[string]map[string]eval.Value{"var": {}, "local": {}}
	for _, ref := range refs {
		obj, _ := scope.Lookup(ref.root)
		if v, err := obj.GetAttr(ref.name); err == nil {
			bound[ref.root][ref.name] = v
		}
	}
	narrow := &eval.Context{Variables: map[string]eval.Value{}, Functions: stdlib}
	for root, attrs := range bound {
		narrow.Variables[root] = eval.Object(attrs)
	}
	return narrow
}

// expandModule expands the resources, data sources and outputs of one
// module: every one, or with a dirty set only the root module's dirty ones,
// each over a scope narrowed to what it reads.
func (ex *Expansion) expandModule(m *Module, scope *eval.Context, modulePath string, dirty *dirtySet) hcl.Diagnostics {
	var diags hcl.Diagnostics
	prefix := ""
	if modulePath != "" {
		prefix = "module." + modulePath + "."
	}

	expandOne := func(r *Resource, scope *eval.Context) {
		keys, d := instanceKeys(r, scope)
		diags = diags.Extend(d)
		if d.HasErrors() {
			return
		}
		refs, d := ex.resourceRefs(r, m, modulePath)
		diags = diags.Extend(d)
		provName := ""
		if p, ok := schema.ProviderForType(r.Type); ok {
			provName = p.Name
		}
		for _, key := range keys {
			inst := &Instance{
				ModulePath: modulePath,
				Mode:       r.Mode,
				Type:       r.Type,
				Name:       r.Name,
				Attrs:      r.Attrs,
				AttrRange:  r.AttrRange,
				DependsOn:  refs.deps,
				RefsSelf:   refs.self,
				RefsModule: refs.module,
				DeclRange:  r.DeclRange,
				Provider:   provName,
				decl:       r,
			}
			base := prefix + r.Key()
			if r.Mode == DataMode {
				base = prefix + "data." + r.Key()
			}
			instScope := scope.Child()
			switch k := key.(type) {
			case noKey:
				inst.Addr = base
			case intKey:
				inst.Addr = fmt.Sprintf("%s[%d]", base, int(k))
				inst.Key = int(k)
				instScope.Variables["count"] = eval.Object(map[string]eval.Value{"index": eval.Int(int(k))})
			case strKey:
				inst.Addr = fmt.Sprintf("%s[%q]", base, k.key)
				inst.Key = k.key
				instScope.Variables["each"] = eval.Object(map[string]eval.Value{
					"key":   eval.String(k.key),
					"value": k.value,
				})
			}
			inst.Scope = instScope
			inst.Region = ex.regionFor(inst)
			if dup, exists := ex.ByAddr[inst.Addr]; exists {
				diags = diags.Append(hcl.Errorf(r.DeclRange,
					"duplicate instance address %q (also declared at %s)", inst.Addr, dup.DeclRange))
				continue
			}
			ex.ByAddr[inst.Addr] = inst
			ex.Instances = append(ex.Instances, inst)
		}
	}
	outputSpec := func(o *Output, scope *eval.Context) *OutputSpec {
		deps, d := ex.exprDeps(o.Expr, m, modulePath)
		diags = diags.Extend(d)
		return &OutputSpec{
			ModulePath: modulePath,
			Name:       o.Name,
			Expr:       o.Expr,
			Scope:      scope,
			Deps:       deps,
			Sensitive:  o.Sensitive,
			DeclRange:  o.DeclRange,
		}
	}

	if dirty != nil {
		for _, r := range dirty.order {
			expandOne(r, narrowScope(scope, r.ast().refs))
		}
		for name := range dirty.outputs {
			o := m.Outputs[name]
			ex.Outputs[name] = outputSpec(o, narrowScope(scope, exprScopeRefs(o.Expr)))
		}
		return diags
	}
	for _, key := range sortedResourceKeys(m.Data) {
		expandOne(m.Data[key], scope)
	}
	for _, key := range sortedResourceKeys(m.Resources) {
		expandOne(m.Resources[key], scope)
	}
	outs := make(map[string]*OutputSpec, len(m.Outputs))
	for name, o := range m.Outputs {
		outs[name] = outputSpec(o, scope)
	}
	if modulePath == "" {
		ex.Outputs = outs
	} else {
		ex.ModuleOutputs[modulePath] = outs
	}
	return diags
}

// regionFor resolves the region of an instance when it is statically known.
func (ex *Expansion) regionFor(inst *Instance) string {
	for _, attrName := range []string{"region", "location"} {
		expr, ok := inst.Attrs[attrName]
		if !ok {
			continue
		}
		// Only statically-evaluable regions resolve here; expressions that
		// reference resources resolve at apply time.
		refsResources := false
		for _, tr := range expr.Variables() {
			switch tr.RootName() {
			case "var", "local", "count", "each":
			default:
				refsResources = true
			}
		}
		if refsResources {
			return ""
		}
		v, d := eval.Evaluate(expr, inst.Scope)
		if !d.HasErrors() && v.Kind() == eval.KindString {
			return v.AsString()
		}
	}
	if p, ok := ex.Providers[inst.Provider]; ok {
		return p.Region
	}
	return ""
}

// instance key variants
type noKey struct{}
type intKey int
type strKey struct {
	key   string
	value eval.Value
}

func (s strKey) String() string { return s.key }

type instKey interface{}

func instanceKeys(r *Resource, scope *eval.Context) ([]instKey, hcl.Diagnostics) {
	var diags hcl.Diagnostics
	switch {
	case r.Count != nil:
		for _, tr := range r.Count.Variables() {
			if root := tr.RootName(); root != "var" && root != "local" {
				return nil, diags.Append(hcl.Errorf(r.Count.Range(),
					"count may only reference variables and locals, not %q", root))
			}
		}
		v, d := eval.Evaluate(r.Count, scope)
		diags = diags.Extend(d)
		if d.HasErrors() {
			return nil, diags
		}
		n, err := eval.ToNumberValue(v)
		if err != nil || n.IsUnknown() {
			return nil, diags.Append(hcl.Errorf(r.Count.Range(), "count must be a known number"))
		}
		c := n.AsInt()
		if c < 0 {
			return nil, diags.Append(hcl.Errorf(r.Count.Range(), "count cannot be negative (got %d)", c))
		}
		keys := make([]instKey, c)
		for i := 0; i < c; i++ {
			keys[i] = intKey(i)
		}
		return keys, diags
	case r.ForEach != nil:
		for _, tr := range r.ForEach.Variables() {
			if root := tr.RootName(); root != "var" && root != "local" {
				return nil, diags.Append(hcl.Errorf(r.ForEach.Range(),
					"for_each may only reference variables and locals, not %q", root))
			}
		}
		v, d := eval.Evaluate(r.ForEach, scope)
		diags = diags.Extend(d)
		if d.HasErrors() {
			return nil, diags
		}
		switch v.Kind() {
		case eval.KindObject:
			obj := v.AsObject()
			names := make([]string, 0, len(obj))
			for k := range obj {
				names = append(names, k)
			}
			sort.Strings(names)
			keys := make([]instKey, len(names))
			for i, k := range names {
				keys[i] = strKey{key: k, value: obj[k]}
			}
			return keys, diags
		case eval.KindList:
			var keys []instKey
			seen := map[string]bool{}
			for _, e := range v.AsList() {
				s, err := eval.ToStringValue(e)
				if err != nil || s.IsUnknown() {
					return nil, diags.Append(hcl.Errorf(r.ForEach.Range(),
						"for_each list elements must be known strings"))
				}
				if seen[s.AsString()] {
					return nil, diags.Append(hcl.Errorf(r.ForEach.Range(),
						"duplicate for_each key %q", s.AsString()))
				}
				seen[s.AsString()] = true
				keys = append(keys, strKey{key: s.AsString(), value: s})
			}
			return keys, diags
		default:
			return nil, diags.Append(hcl.Errorf(r.ForEach.Range(),
				"for_each requires a map or a list of strings, got %s", v.Kind()))
		}
	default:
		return []instKey{noKey{}}, diags
	}
}

// declRefs is what one declaration names, resolved once and shared by every
// instance it expands to.
type declRefs struct {
	deps         []string // resource-level addresses, sorted, self excluded
	self, module bool
}

// resourceRefs resolves the references of a declaration: explicit depends_on
// plus every reference in its expressions.
func (ex *Expansion) resourceRefs(r *Resource, m *Module, modulePath string) (declRefs, hcl.Diagnostics) {
	var refs declRefs
	var diags hcl.Diagnostics
	set := map[string]bool{}
	note := func(tr hcl.Traversal, at hcl.Range) {
		addrs, err := ex.refToAddr(tr, m, modulePath)
		if err != nil {
			diags = diags.Append(hcl.Errorf(at, "%s", err))
		}
		for _, a := range addrs {
			set[a] = true
		}
		if tr.RootName() == "module" && modulePath == "" {
			refs.module = true
		}
	}
	for _, tr := range r.DependsOn {
		note(tr, r.DeclRange)
	}
	exprs := make([]hcl.Expression, 0, len(r.Attrs)+2)
	for _, e := range r.Attrs {
		exprs = append(exprs, e)
	}
	if r.Count != nil {
		exprs = append(exprs, r.Count)
	}
	if r.ForEach != nil {
		exprs = append(exprs, r.ForEach)
	}
	for _, e := range exprs {
		for _, tr := range e.Variables() {
			note(tr, e.Range())
		}
	}
	self := r.Key()
	if modulePath != "" {
		self = "module." + modulePath + "." + self
	}
	refs.self = set[self]
	delete(set, self)
	refs.deps = sortedSet(set)
	return refs, diags
}

// exprDeps resolves the dependencies of a standalone expression (outputs).
func (ex *Expansion) exprDeps(e hcl.Expression, m *Module, modulePath string) ([]string, hcl.Diagnostics) {
	var diags hcl.Diagnostics
	set := map[string]bool{}
	for _, tr := range e.Variables() {
		addrs, err := ex.refToAddr(tr, m, modulePath)
		if err != nil {
			diags = diags.Append(hcl.Errorf(e.Range(), "%s", err))
		}
		for _, a := range addrs {
			set[a] = true
		}
	}
	return sortedSet(set), diags
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// refToAddr maps a traversal to the resource-level addresses it depends on.
// A traversal that stops at a resource, data or module root without naming a
// member (aws_vpc, data.aws_region, module) is an error: it has no address to
// order evaluation by, so its value would depend on evaluation order.
func (ex *Expansion) refToAddr(tr hcl.Traversal, m *Module, modulePath string) ([]string, error) {
	prefix := ""
	if modulePath != "" {
		prefix = "module." + modulePath + "."
	}
	attr := func(i int) (string, bool) {
		if len(tr) <= i {
			return "", false
		}
		a, ok := tr[i].(hcl.TraverseAttr)
		return a.Name, ok
	}
	root := tr.RootName()
	switch root {
	case "var", "local", "count", "each", "path":
		return nil, nil
	case "data":
		typ, ok1 := attr(1)
		name, ok2 := attr(2)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("reference %s must name a data source: data.<type>.<name>", tr)
		}
		return []string{prefix + "data." + typ + "." + name}, nil
	case "module":
		// module.<call>.<output>: depend on whatever the output depends on.
		call, ok := attr(1)
		if !ok {
			return nil, fmt.Errorf("reference %s must name a module call: module.<call>", tr)
		}
		outs := ex.ModuleOutputs[call]
		if outName, ok := attr(2); ok {
			if spec, exists := outs[outName]; exists {
				return spec.Deps, nil
			}
		}
		var all []string
		for _, spec := range outs {
			all = append(all, spec.Deps...)
		}
		return all, nil
	default:
		// A resource-type root such as aws_vpc.
		if _, isType := schema.LookupResource(root); !isType {
			return nil, nil
		}
		name, ok := attr(1)
		if !ok {
			return nil, fmt.Errorf("reference %s must name a resource: %s.<name>", tr, root)
		}
		return []string{prefix + root + "." + name}, nil
	}
}

func sortedResourceKeys(m map[string]*Resource) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedCallNames(m map[string]*ModuleCall) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
